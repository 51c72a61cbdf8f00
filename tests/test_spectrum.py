"""The spectrum decision, eventually periodic paths, and path characters."""

import random
from fractions import Fraction

import pytest

import helpers
from groupoid_spectrum.corpus import random_validated_graph
from groupoid_spectrum.digraph import CycleRep, DiGraph, Edge, InvalidGraphError
from groupoid_spectrum.oracle import naive_reach_sets
from groupoid_spectrum.spectrum import (
    CONDITION_C_NOTE,
    ConditionARequired,
    EventualPath,
    FiberMismatchError,
    PathChar,
    check_condition_a,
    check_condition_b,
    decide_hausdorff_spectrum,
    orbits,
    shift_equivalent,
    stabilizer_of_path,
    transport_char,
)

FUNNEL_VERDICT = {
    "validated": True,
    "condition_a": {"pass": True, "cycles": [["La"], ["Lb"]], "entries": []},
    "condition_b": {
        "pass": True,
        "certificates": [{"pair": [["La"], ["Lb"]], "u": "a", "v": "b"}],
    },
    "condition_c": "automatic (stabilizer conjugation argument)",
    "hausdorff": True,
}

ENTRY_VERDICT = {
    "validated": True,
    "condition_a": {
        "pass": False,
        "cycles": [["La"], ["Lb"]],
        "entries": [{"cycle": ["La"], "entry": "e"}],
        "stabilizer_discontinuity": [
            {
                "cycle": ["La"],
                "entry": "e",
                "approx_periods": "constant 0",
                "approx_fell_limit": "{0}",
                "period_at_limit": "1Z",
                "continuous": False,
            }
        ],
    },
    "condition_b": {"pass": "skipped", "certificates": []},
    "condition_c": "automatic (stabilizer conjugation argument)",
    "hausdorff": False,
}


class TestDecision:
    def test_funnel_is_hausdorff(self):
        verdict = decide_hausdorff_spectrum(helpers.graph_two_loops_funnel())
        assert verdict.to_json() == FUNNEL_VERDICT

    def test_single_loop_is_hausdorff(self):
        verdict = decide_hausdorff_spectrum(helpers.graph_single_loop())
        assert verdict.hausdorff
        assert verdict.condition_b.status == "pass"
        assert verdict.condition_b.certificates == ()

    def test_entry_breaks_hausdorff(self):
        verdict = decide_hausdorff_spectrum(helpers.graph_loop_with_entry())
        assert verdict.to_json() == ENTRY_VERDICT

    def test_three_cycle_is_hausdorff(self):
        verdict = decide_hausdorff_spectrum(helpers.graph_three_cycle())
        assert verdict.hausdorff
        assert [list(c.edge_ids()) for c in verdict.condition_a.cycles] == [["c1", "c3", "c2"]]

    def test_rejects_unvalidated(self):
        from groupoid_spectrum.digraph import DiGraph

        with pytest.raises(InvalidGraphError):
            decide_hausdorff_spectrum(DiGraph.build(["a", "b"], [("l", "a", "a")]))

    def test_condition_b_refutation(self):
        # condition A fails on this graph, so drive B directly on the two loops
        g = helpers.graph_common_ancestor()
        cycles = (
            CycleRep((g.edge_by_id["La"],)),
            CycleRep((g.edge_by_id["Lb"],)),
        )
        report = check_condition_b(g, cycles)
        assert report.status == "fail"
        assert report.certificates == ()
        refutation = report.refutation
        assert refutation is not None
        assert refutation.to_json() == {
            "pair": [["La"], ["Lb"]],
            "common_ancestors": [{"u": "a", "v": "b", "w": "w"}],
        }

    def test_condition_a_certificates(self):
        report = check_condition_a(helpers.graph_loop_with_entry())
        assert not report.passed
        (cert,) = report.certificates
        assert cert.approx_limit.label() == "{0}"
        assert cert.limit_period == 1
        assert cert.entry.id == "e"

    def test_condition_a_shares_one_fell_limit(self):
        # every entry has approximants of head period 0; without entries there is no limit
        report = check_condition_a(helpers.complete_graph(4))
        assert report.approx_limit.label() == "{0}"
        assert len(report.certificates) == len(report.entries) > 0
        for cert, (cycle, entry) in zip(report.certificates, report.entries):
            assert (cert.cycle, cert.entry) == (cycle, entry)
            assert cert.approx_limit is report.approx_limit
            assert cert.limit_period == len(cycle)
        assert check_condition_a(helpers.graph_two_loops_funnel()).approx_limit is None

    def test_entry_free_implies_separated(self):
        # under condition A distinct cycles are vertex disjoint and nothing
        # outside a cycle reaches it, so condition B always finds a pair
        for g in helpers.corpus_slice():
            verdict = decide_hausdorff_spectrum(g)
            if verdict.condition_a.passed:
                assert verdict.condition_b.status == "pass"
                assert verdict.hausdorff
            else:
                assert verdict.condition_b.status == "skipped"
                assert not verdict.hausdorff

    def test_condition_c_note(self):
        assert CONDITION_C_NOTE == "automatic (stabilizer conjugation argument)"


def brute_condition_b(g, cycles) -> dict:
    """Condition B report by definition, from BFS reach sets.

    Every pair of sorted reach sets is scanned in full: the certificate is
    the least separated (u, v), the witness the lowest-index common ancestor.
    """
    reach = naive_reach_sets(g)
    ancestors = {u: [w for w in g.vertices if u in reach[w]] for u in g.vertices}

    def reach_of(c):
        return sorted(set().union(*(reach[v] for v in c.vertices)))

    certificates = []
    ordered = sorted(cycles, key=CycleRep.sort_key)
    for i, c in enumerate(ordered):
        for d in ordered[i + 1 :]:
            pair = [list(c.edge_ids()), list(d.edge_ids())]
            separated = [
                (u, v)
                for u in reach_of(c)
                for v in reach_of(d)
                if not set(ancestors[u]) & set(ancestors[v])
            ]
            if not separated:
                witnesses = [
                    {"u": u, "v": v, "w": next(w for w in ancestors[u] if w in ancestors[v])}
                    for u in reach_of(c)
                    for v in reach_of(d)
                ]
                return {
                    "pass": False,
                    "certificates": certificates,
                    "refutation": {"pair": pair, "common_ancestors": witnesses},
                }
            u, v = min(separated)
            certificates.append({"pair": pair, "u": u, "v": v})
    return {"pass": True, "certificates": certificates}


def disjoint_union(*graphs) -> DiGraph:
    vertices, edges = [], []
    for k, part in enumerate(graphs):
        vertices += [f"{k}{v}" for v in part.vertices]
        edges += [Edge(f"{k}{e.id}", f"{k}{e.src}", f"{k}{e.rng}") for e in part.edges]
    return DiGraph(tuple(vertices), tuple(edges))


def entry_graphs():
    """Graphs where condition A fails, with a sample of their cycles.

    Disjoint parts give separated pairs; an extra source vertex feeding some
    vertices gives a source component that is not a cycle.
    """
    rng = random.Random(31)
    for _ in range(200):
        parts = [random_validated_graph(rng, max_vertices=4) for _ in range(rng.randint(1, 3))]
        g = disjoint_union(*parts)
        if rng.random() < 0.3:
            feeds = [Edge(f"x{t}", "s", t) for t in rng.sample(g.vertices, min(2, len(g.vertices)))]
            g = DiGraph.build(g.vertices + ("s",), g.edges + tuple(feeds))
        report = check_condition_a(g)
        if not report.passed:
            k = rng.randint(1, min(len(report.cycles), 5))
            yield g, tuple(rng.sample(report.cycles, k))


class TestConditionBReference:
    def test_decisions_match_definition(self):
        for g in helpers.corpus_slice():
            verdict = decide_hausdorff_spectrum(g)
            if verdict.condition_a.passed:
                expected = brute_condition_b(g, verdict.condition_a.cycles)
                assert verdict.condition_b.to_json() == expected

    def test_direct_calls_without_condition_a(self):
        outcomes = set()
        for g, cycles in entry_graphs():
            report = check_condition_b(g, cycles)
            assert report.to_json() == brute_condition_b(g, cycles)
            outcomes.add(report.status)
        assert outcomes == {"pass", "fail"}

    def test_hundred_thousand_vertices(self):
        # two loops feeding one long chain whose names sort before theirs, so
        # every early candidate u shares an ancestor with every v
        n = 100_000
        vertices = ["p", "q"] + [f"c{i:06d}" for i in range(n)]
        edges = [("Lp", "p", "p"), ("Lq", "q", "q"), ("ep", "p", "c000000"), ("eq", "q", "c000000")]
        edges += [(f"h{i:06d}", f"c{i:06d}", f"c{i + 1:06d}") for i in range(n - 1)]
        verdict = decide_hausdorff_spectrum(DiGraph.build(vertices, edges))
        assert [c.edge_ids() for c in verdict.condition_a.cycles] == [("Lp",), ("Lq",)]
        assert verdict.condition_b.to_json()["certificates"] == [
            {"pair": [["Lp"], ["Lq"]], "u": "p", "v": "q"}
        ]
        assert verdict.hausdorff


class TestOrbits:
    def test_funnel_orbits(self):
        reps = orbits(helpers.graph_two_loops_funnel())
        assert [c.edge_ids() for c in reps] == [("La",), ("Lb",)]

    def test_refused_when_entries_exist(self):
        with pytest.raises(ConditionARequired):
            orbits(helpers.graph_loop_with_entry())

    def test_refused_when_invalid(self):
        from groupoid_spectrum.digraph import DiGraph

        with pytest.raises(InvalidGraphError):
            orbits(DiGraph.build(["a", "b"], [("l", "a", "a")]))


def three_cycle_edges():
    g = helpers.graph_three_cycle()
    return g, tuple(g.edge_by_id[i] for i in ("c1", "c2", "c3"))


class TestEventualPath:
    def test_minimize_absorbs_wrapped_prefix(self):
        _, (c1, c2, c3) = three_cycle_edges()
        p = EventualPath((c2,), (c1, c3, c2))
        m = p.minimize()
        assert m.prefix == ()
        assert tuple(e.id for e in m.cycle) == ("c2", "c1", "c3")
        assert p.denotes_same_path(m)

    def test_minimize_keeps_genuine_prefix(self):
        g = helpers.graph_two_loops_funnel()
        p = EventualPath((g.edge_by_id["f"],), (g.edge_by_id["La"],))
        assert p.minimize() == p
        assert p.range_vertex == "t"

    def test_shift(self):
        _, (c1, c2, c3) = three_cycle_edges()
        p = EventualPath((c2,), (c1, c3, c2))
        s = p.shift()
        assert s.prefix == ()
        assert tuple(e.id for e in s.cycle) == ("c1", "c3", "c2")
        ss = s.shift()
        assert tuple(e.id for e in ss.cycle) == ("c3", "c2", "c1")

    def test_edge_at_periodicity(self):
        g = helpers.graph_two_loops_funnel()
        p = EventualPath((g.edge_by_id["f"],), (g.edge_by_id["La"],))
        assert [p.edge_at(i).id for i in range(4)] == ["f", "La", "La", "La"]

    def test_denotes_same_path_distinguishes_rotations(self):
        _, (c1, c2, c3) = three_cycle_edges()
        x = EventualPath((), (c1, c3, c2))
        y = EventualPath((), (c2, c1, c3))
        assert not x.denotes_same_path(y)
        wrapped = EventualPath((c1,), (c3, c2, c1))
        assert wrapped.denotes_same_path(x)
        assert wrapped.minimize() == x
        assert EventualPath((c2,), (c1, c3, c2)).denotes_same_path(y)

    def test_rejects_bad_presentations(self):
        g, (c1, c2, c3) = three_cycle_edges()
        with pytest.raises(ValueError, match="does not meet"):
            EventualPath((c1,), (c1, c3, c2))
        with pytest.raises(ValueError, match="not simple"):
            EventualPath((), (c1, c3, c2, c1, c3, c2))

    def test_vertices_on(self):
        g = helpers.graph_two_loops_funnel()
        p = EventualPath((g.edge_by_id["f"],), (g.edge_by_id["La"],))
        assert p.vertices_on() == {"a", "t"}

    def test_to_json(self):
        g = helpers.graph_two_loops_funnel()
        p = EventualPath((g.edge_by_id["f"],), (g.edge_by_id["La"],))
        assert p.to_json() == {"prefix": ["f"], "cycle": ["La"]}


class TestShiftEquivalence:
    def test_prefix_is_irrelevant(self):
        g = helpers.graph_two_loops_funnel()
        x = EventualPath((), (g.edge_by_id["La"],))
        y = EventualPath((g.edge_by_id["f"],), (g.edge_by_id["La"],))
        assert shift_equivalent(x, y)

    def test_different_cycles_are_inequivalent(self):
        g = helpers.graph_two_loops_funnel()
        x = EventualPath((g.edge_by_id["f"],), (g.edge_by_id["La"],))
        y = EventualPath((g.edge_by_id["g"],), (g.edge_by_id["Lb"],))
        assert not shift_equivalent(x, y)

    def test_rotations_are_equivalent(self):
        _, (c1, c2, c3) = three_cycle_edges()
        assert shift_equivalent(
            EventualPath((), (c1, c3, c2)), EventualPath((), (c3, c2, c1))
        )


class TestStabilizer:
    def test_periodic_path(self):
        _, (c1, c2, c3) = three_cycle_edges()
        assert stabilizer_of_path(EventualPath((), (c1, c3, c2))) == 3
        # a wrapped prefix minimizes away, so the period survives
        assert stabilizer_of_path(EventualPath((c2,), (c1, c3, c2))) == 3

    def test_aperiodic_path(self):
        g = helpers.graph_two_loops_funnel()
        p = EventualPath((g.edge_by_id["f"],), (g.edge_by_id["La"],))
        assert stabilizer_of_path(p) == 0

    def test_shift_preserves_nonzero_period(self):
        _, (c1, c2, c3) = three_cycle_edges()
        p = EventualPath((), (c1, c3, c2))
        assert stabilizer_of_path(p.shift()) == stabilizer_of_path(p) == 3


class TestPathChar:
    def periodic(self):
        _, (c1, c2, c3) = three_cycle_edges()
        return EventualPath((), (c1, c3, c2))

    def test_angle_normalizes(self):
        chi = PathChar(self.periodic(), Fraction(5, 3))
        assert chi.angle == Fraction(2, 3)

    def test_evaluate(self):
        chi = PathChar(self.periodic(), Fraction(2, 3))
        assert chi.evaluate(0) == 0
        assert chi.evaluate(3) == Fraction(2, 3)
        assert chi.evaluate(6) == Fraction(1, 3)
        assert chi.evaluate(9) == 0
        assert chi.evaluate(-3) == Fraction(1, 3)

    def test_evaluate_rejects_off_group_lags(self):
        chi = PathChar(self.periodic(), Fraction(1, 3))
        with pytest.raises(ValueError, match="outside the period group"):
            chi.evaluate(4)

    def test_trivial_period_group(self):
        g = helpers.graph_two_loops_funnel()
        base = EventualPath((g.edge_by_id["f"],), (g.edge_by_id["La"],))
        with pytest.raises(ValueError, match="trivial period group"):
            PathChar(base, Fraction(1, 2))
        chi = PathChar(base, Fraction(0))
        assert chi.evaluate(0) == 0
        with pytest.raises(ValueError):
            chi.evaluate(1)

    def test_to_json(self):
        chi = PathChar(self.periodic(), Fraction(1, 3))
        blob = chi.to_json()
        assert blob["angle"] == "1/3"
        assert blob["period"] == 3


class TestTransport:
    def test_transport_keeps_angle(self):
        _, (c1, c2, c3) = three_cycle_edges()
        chi = PathChar(EventualPath((), (c1, c3, c2)), Fraction(1, 3))
        y = EventualPath((), (c2, c1, c3))
        moved = transport_char(y, 1, chi)
        assert moved.base == y
        assert moved.angle == Fraction(1, 3)

    def test_transport_roundtrip(self):
        _, (c1, c2, c3) = three_cycle_edges()
        x = EventualPath((), (c1, c3, c2))
        y = EventualPath((), (c3, c2, c1))
        chi = PathChar(x, Fraction(2, 3))
        assert transport_char(x, -1, transport_char(y, 1, chi)) == chi

    def test_transport_rejects_other_fibers(self):
        g = helpers.graph_two_loops_funnel()
        chi = PathChar(EventualPath((), (g.edge_by_id["La"],)), Fraction(1, 2))
        y = EventualPath((), (g.edge_by_id["Lb"],))
        with pytest.raises(FiberMismatchError):
            transport_char(y, 0, chi)
