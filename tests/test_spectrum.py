"""The spectrum decision and eventually periodic paths."""

import random
from itertools import combinations
from time import perf_counter

import pytest

import helpers
from groupoid_spectrum import _kernels, spectrum
from groupoid_spectrum.digraph import CycleRep, DiGraph, InvalidGraphError
from groupoid_spectrum.spectrum import (
    CONDITION_C_NOTE,
    ConditionARequired,
    EventualPath,
    check_condition_a,
    check_condition_b,
    decide_hausdorff_spectrum,
    orbits,
    shift_equivalent,
    stabilizer_of_path,
    stabilizer_record,
)
from oracle import edge_at, naive_entries, naive_reach_sets, naive_simple_cycles, vertices_on

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

    def test_condition_a_certificates(self):
        # approximants of head period 0 converge to {0}; the limit path has period n
        report = check_condition_a(helpers.graph_loop_with_entry())
        assert not report.passed
        ((cycle, entry),) = report.entries
        assert (len(cycle), entry.id) == (1, "e")
        for period in range(1, 7):
            assert stabilizer_record(period) == {
                "approx_periods": "constant 0",
                "approx_fell_limit": "{0}",
                "period_at_limit": f"{period}Z",
                "continuous": False,
            }

    def test_stabilizer_records_are_fresh_and_share_one_limit(self, monkeypatch):
        # the {0} limit is computed once, at import; each call still returns a new dict
        def refuse(family):
            raise AssertionError("the Fell limit was computed again")

        monkeypatch.setattr(spectrum, "fell_subgroup_limit", refuse)
        first = stabilizer_record(3)
        expected = dict(first)
        first["approx_fell_limit"] = "changed"
        first["extra"] = True
        second = stabilizer_record(3)
        assert second == expected and second is not first
        assert expected == {
            "approx_periods": "constant 0",
            "approx_fell_limit": "{0}",
            "period_at_limit": "3Z",
            "continuous": False,
        }

    def test_condition_a_shares_one_fell_limit(self):
        # each discontinuity item is its entries item with the record of its cycle length
        report = check_condition_a(helpers.complete_graph(4))
        blob = report.to_json()
        assert len(blob["stabilizer_discontinuity"]) == len(blob["entries"]) == len(report.entries) > 0
        for item, entry, (cycle, _) in zip(blob["stabilizer_discontinuity"], blob["entries"], report.entries):
            assert item == {**entry, **stabilizer_record(len(cycle))}
            assert item["approx_fell_limit"] == "{0}"

    def test_verdict_is_read_off_the_runs(self):
        # neither condition A's pass nor the verdict is stored apart from the entries
        verdict = decide_hausdorff_spectrum(helpers.graph_loop_with_entry())
        assert not verdict.condition_a.passed and not verdict.hausdorff
        cleared = verdict.condition_a.replace(run_ranks=())
        assert cleared.passed and verdict.replace(condition_a=cleared).hausdorff
        assert cleared.runs == cleared.entries == ()

    def test_condition_a_json_matches_per_entry_reference(self):
        # the oracle's cycles, shortest first, then by ids, and its (cycle, entry) pairs in cycle order
        graphs = [*helpers.corpus_slice(), helpers.complete_graph(5), helpers.bouquet(12)]
        failed = 0
        for g in graphs:
            report = check_condition_a(g)
            blob = report.to_json()
            cycles = sorted(naive_simple_cycles(g), key=lambda ids: (len(ids), ids))
            pairs = sorted(naive_entries(g, set(cycles)), key=lambda pair: (cycles.index(pair[0]), pair[1]))
            assert blob["cycles"] == list(map(list, cycles))
            assert blob["entries"] == [{"cycle": list(c), "entry": e} for c, e in pairs]
            assert blob["pass"] is report.passed is (not pairs) is ("stabilizer_discontinuity" not in blob)
            failed += not report.passed
        assert failed > 100
        # every item owns its list and dict, so changing one changes no other
        blob = check_condition_a(helpers.complete_graph(4)).to_json()
        items = blob["entries"] + blob["stabilizer_discontinuity"]
        assert len({id(item) for item in items}) == len(items)
        assert len({id(item["cycle"]) for item in items}) == len(items)

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


def brute_condition_b(g, cycles) -> tuple[dict, bool]:
    """Condition B report by definition, from BFS reach sets.

    Every pair of sorted reach sets is scanned in full; the certificate is
    the least separated (u, v).  The flag tells whether some certificate is
    not the pair of least vertices of the two reach sets.
    """
    reach = naive_reach_sets(g)
    ancestors = {u: {w for w in g.vertices if u in reach[w]} for u in g.vertices}

    def reach_of(c):
        return sorted(set().union(*(reach[v] for v in c.vertices)))

    certificates = []
    beyond_first = False
    ordered = sorted(cycles, key=CycleRep.sort_key)
    for i, c in enumerate(ordered):
        for d in ordered[i + 1 :]:
            separated = [
                (u, v)
                for u in reach_of(c)
                for v in reach_of(d)
                if not ancestors[u] & ancestors[v]
            ]
            u, v = min(separated)
            beyond_first |= (u, v) != (reach_of(c)[0], reach_of(d)[0])
            certificates.append({"pair": [list(c.edge_ids()), list(d.edge_ids())], "u": u, "v": v})
    return {"pass": True, "certificates": certificates}, beyond_first


def entry_free_graphs():
    """Random validated graphs where condition A holds.

    Cycles are sources; every other vertex hangs below them through one or
    more edges from earlier vertices (trees plus forward cross edges), so
    reach sets overlap in many ways.  Names are random and the vertex list
    is shuffled, so name order, declaration order and component order differ.
    """
    rng = random.Random(53)
    for _ in range(150):
        names = rng.sample(range(1000), 40)
        vertices, edges = [], []

        def vertex():
            vertices.append(f"v{names[len(vertices)]:03d}")
            return vertices[-1]

        for _ in range(rng.randint(1, 6)):
            ring = [vertex() for _ in range(rng.randint(1, 3))]
            edges += [(ring[k], ring[k - 1]) for k in range(len(ring))]
        for _ in range(rng.randint(0, 40 - len(vertices))):
            earlier = list(vertices)
            t = vertex()
            edges += [(s, t) for s in rng.sample(earlier, min(len(earlier), rng.randint(1, 3)))]
        rng.shuffle(vertices)
        yield DiGraph.build(vertices, [(f"e{k:03d}", s, t) for k, (s, t) in enumerate(edges)])


class TestConditionBReference:
    def test_decisions_match_definition(self):
        for g in helpers.corpus_slice():
            verdict = decide_hausdorff_spectrum(g)
            if verdict.condition_a.passed:
                expected, _ = brute_condition_b(g, verdict.condition_a.cycles)
                assert verdict.condition_b.to_json() == expected

    def test_entry_free_graphs_match_definition(self):
        beyond_first = set()
        for g in entry_free_graphs():
            report_a = check_condition_a(g)
            assert report_a.passed
            expected, beyond = brute_condition_b(g, report_a.cycles)
            assert check_condition_b(g, report_a).to_json() == expected
            beyond_first.add(beyond)
        # the least pair is sometimes the first candidate pair, sometimes later
        assert beyond_first == {False, True}

    def test_cycles_past_a_machine_word(self):
        # masks wider than 64 bits: 100 disjoint rings, and 70 cycles whose trees cross
        for g in (helpers.disjoint_rings(100, 5), helpers.planted_separated(4, n=300, k=70, chain=10)):
            verdict = decide_hausdorff_spectrum(g)
            expected, _ = brute_condition_b(g, verdict.condition_a.cycles)
            assert len(expected["certificates"]) > 64 * 63 // 2
            assert verdict.condition_b.to_json() == expected

    def test_certificates_are_name_pairs_in_cycle_pair_order(self):
        loops = DiGraph.build(
            [f"v{i:02d}" for i in range(40)], [(f"L{i:02d}", f"v{i:02d}", f"v{i:02d}") for i in range(40)]
        )
        planted = helpers.planted_separated(2, n=60, k=8, chain=10)
        for g in (loops, planted):
            report_a = check_condition_a(g)
            report = check_condition_b(g, report_a)
            assert report.cycles is report_a.cycles
            assert type(report.certificates) is tuple
            assert len(report.certificates) == len(list(combinations(report.cycles, 2)))
            for pair in report.certificates:
                assert type(pair) is tuple and list(map(type, pair)) == [str, str]
            if g is loops:
                assert report.certificates == tuple(
                    (f"v{i:02d}", f"v{j:02d}") for i, j in combinations(range(40), 2)
                )
            else:
                expected, _ = brute_condition_b(g, report_a.cycles)
                assert [
                    {"pair": [list(c.edge_ids()), list(d.edge_ids())], "u": u, "v": v}
                    for (c, d), (u, v) in zip(combinations(report.cycles, 2), report.certificates)
                ] == expected["certificates"]

    def test_skipped_when_condition_a_fails(self):
        for g in (helpers.graph_common_ancestor(), helpers.complete_graph(4)):
            report = check_condition_b(g, check_condition_a(g))
            assert report.status == "skipped"
            assert report.to_json() == {"pass": "skipped", "certificates": []}

    def test_hundred_thousand_vertices(self):
        # two loops feeding one long chain whose names sort before theirs, so
        # every early candidate u shares an ancestor with every v
        verdict = decide_hausdorff_spectrum(helpers.two_loop_chain(100_000))
        assert [c.edge_ids() for c in verdict.condition_a.cycles] == [("Lp",), ("Lq",)]
        assert verdict.condition_b.to_json()["certificates"] == [
            {"pair": [["Lp"], ["Lq"]], "u": "p", "v": "q"}
        ]
        assert verdict.hausdorff

    def test_ladder_is_bounded_by_its_output(self):
        # a loop at a0 above 24 layers of two vertices, all edges between
        # consecutive layers, plus a loop at w entering the loop at z: 3 cycles
        # and 1 entry, though the layers hold 2**24 simple paths
        layers = 24
        vertices, edges, above = ["a0"], [("La", "a0", "a0")], ["a0"]
        for k in range(1, layers + 1):
            layer = [f"x{k}", f"y{k}"]
            vertices += layer
            edges += [(f"e{u}_{v}", u, v) for u in above for v in layer]
            above = layer
        vertices += ["w", "z"]
        edges += [("Lw", "w", "w"), ("Lz", "z", "z"), ("wz", "w", "z")]
        g = DiGraph.build(vertices, edges)
        start = perf_counter()
        verdict = decide_hausdorff_spectrum(g)
        elapsed = perf_counter() - start
        a = verdict.condition_a
        assert [c.edge_ids() for c in a.cycles] == [("La",), ("Lw",), ("Lz",)]
        assert [(c.edge_ids(), e.id) for c, e in a.entries] == [(("Lz",), "wz")]
        assert not verdict.hausdorff
        assert elapsed < 1.0


class TestEntryFreeNeedsNoKernel:
    """Entry-free graphs are decided by ``DiGraph.pointer_cycles`` alone."""

    @pytest.fixture(autouse=True)
    def no_kernels(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a kernel ran on an entry-free graph")

        monkeypatch.setattr(_kernels, "components", refuse)
        monkeypatch.setattr(_kernels, "simple_cycles", refuse)

    def test_chain(self):
        g = helpers.two_loop_chain(100_000)
        verdict = decide_hausdorff_spectrum(g)
        assert verdict.hausdorff
        assert [c.edge_ids() for c in verdict.condition_a.cycles] == [("Lp",), ("Lq",)]
        assert verdict.condition_b.certificates == (("p", "q"),)

    def test_disjoint_rings(self):
        # each ring's least vertex separates it from every other ring
        g = helpers.disjoint_rings(300, 5)
        verdict = decide_hausdorff_spectrum(g)
        assert verdict.hausdorff
        cycles = verdict.condition_a.cycles
        # head-first: x{c}_4 runs into r{c}_0, where x{c}_0 starts
        expected = {tuple(f"x{c}_{i}" for i in (0, 4, 3, 2, 1)) for c in range(300)}
        assert {c.edge_ids() for c in cycles} == expected
        assert [c.sort_key() for c in cycles] == sorted(c.sort_key() for c in cycles)
        least = [min(c.vertices) for c in cycles]
        assert verdict.condition_b.certificates == tuple(combinations(least, 2))

    def test_planted_separated(self):
        g = helpers.planted_separated(3)
        verdict = decide_hausdorff_spectrum(g)
        assert verdict.hausdorff
        assert {c.edge_ids() for c in verdict.condition_a.cycles} == naive_simple_cycles(g)
        expected, _ = brute_condition_b(g, verdict.condition_a.cycles)
        assert verdict.condition_b.to_json() == expected


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
        assert [edge_at(p, i) for i in range(7)] == [edge_at(m, i) for i in range(7)]

    def test_minimize_keeps_genuine_prefix(self):
        g = helpers.graph_two_loops_funnel()
        p = EventualPath((g.edge_by_id["f"],), (g.edge_by_id["La"],))
        assert p.minimize() == p

    def test_edge_at_periodicity(self):
        g = helpers.graph_two_loops_funnel()
        p = EventualPath((g.edge_by_id["f"],), (g.edge_by_id["La"],))
        assert [edge_at(p, i).id for i in range(4)] == ["f", "La", "La", "La"]

    def test_rejects_bad_presentations(self):
        g, (c1, c2, c3) = three_cycle_edges()
        with pytest.raises(ValueError, match="does not meet"):
            EventualPath((c1,), (c1, c3, c2))
        with pytest.raises(ValueError, match="not simple"):
            EventualPath((), (c1, c3, c2, c1, c3, c2))

    def test_vertices_on(self):
        g = helpers.graph_two_loops_funnel()
        p = EventualPath((g.edge_by_id["f"],), (g.edge_by_id["La"],))
        assert vertices_on(p) == {"a", "t"}

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
        shifted = EventualPath((), (c3, c2, c1))  # p without its first edge
        assert stabilizer_of_path(shifted) == stabilizer_of_path(p) == 3

