"""The naive route must agree with the fast route everywhere it is defined."""

import helpers
import oracle
from corpus import enumerate_validated_simple, random_corpus
from groupoid_spectrum import spectrum
from oracle import (
    enumerate_eventual_paths,
    naive_entries,
    naive_reach_sets,
    naive_shift_classes,
    naive_simple_cycles,
    oracle_suite,
)

FIXTURES = [
    helpers.graph_single_loop(),
    helpers.graph_two_loops_funnel(),
    helpers.graph_loop_with_entry(),
    helpers.graph_three_cycle(),
    helpers.graph_common_ancestor(),
]


def sample():
    yield from enumerate_validated_simple(3, 9)
    yield from random_corpus(120, seed=23, max_vertices=6)


class TestNaivePieces:
    def test_cycles_match_kernel(self):
        for g in list(sample()) + FIXTURES:
            fast = {c.edge_ids() for c in spectrum.check_condition_a(g).cycles}
            assert naive_simple_cycles(g) == fast

    def test_entries_match_kernel(self):
        for g in list(sample()) + FIXTURES:
            fast = {(c.edge_ids(), e.id) for c, e in spectrum.check_condition_a(g).entries}
            assert naive_entries(g) == fast

    def test_reach_matches_both_routes(self):
        for g in list(sample()) + FIXTURES:
            naive = naive_reach_sets(g)
            assert naive == helpers.brute_reach(g)
            helpers.assert_components_match_reach(g, naive)


class TestPathEnumeration:
    def test_funnel_paths(self):
        paths = enumerate_eventual_paths(helpers.graph_two_loops_funnel(), 3)
        blobs = sorted((p.to_json()["prefix"], p.to_json()["cycle"]) for p in paths)
        assert blobs == [([], ["La"]), ([], ["Lb"]), (["f"], ["La"]), (["g"], ["Lb"])]

    def test_funnel_shift_classes(self):
        paths = enumerate_eventual_paths(helpers.graph_two_loops_funnel(), 3)
        classes = naive_shift_classes(paths)
        assert sorted(len(cls) for cls in classes) == [2, 2]

    def test_three_cycle_rotations_collapse(self):
        paths = enumerate_eventual_paths(helpers.graph_three_cycle(), 0)
        assert len(paths) == 3  # one presentation per rotation
        assert len(naive_shift_classes(paths)) == 1

    def test_given_cycles_are_the_naive_ones(self):
        for g in FIXTURES:
            cycles = naive_simple_cycles(g)
            assert enumerate_eventual_paths(g, 2, cycles) == enumerate_eventual_paths(g, 2)
            assert naive_entries(g, cycles) == naive_entries(g)

    def test_prefix_budget_is_respected(self):
        for budget in range(4):
            paths = enumerate_eventual_paths(helpers.graph_two_loops_funnel(), budget)
            assert all(len(p.prefix) <= budget for p in paths)


class TestSuite:
    def test_fixture_agreement(self):
        for g in FIXTURES:
            [report] = oracle_suite(g, (3,))
            assert report.all_agree, report.details

    def test_funnel_details(self):
        [report] = oracle_suite(helpers.graph_two_loops_funnel(), (3,))
        assert report.details["paths_enumerated"] == 4
        assert report.details["shift_classes"] == 2
        assert report.orbit_count_agrees
        assert report.condition_b_agrees

    def test_entry_graph_skips_path_stage(self):
        [report] = oracle_suite(helpers.graph_loop_with_entry(), (3,))
        assert report.condition_a_agrees and report.entries_agree
        assert report.orbit_count_agrees is None
        assert report.condition_b_agrees is None

    def test_sample_agreement_at_increasing_budgets(self):
        for g in sample():
            reports = oracle_suite(g, (0, 2))
            for budget, report in zip((0, 2), reports, strict=True):
                assert report.all_agree, (g, budget, report.details)
                # the graph-level work shared between budgets leaves each report as a call of its own
                assert [report] == oracle_suite(g, (budget,))

    def test_naive_cycles_are_found_once_per_graph(self, monkeypatch):
        calls = []
        naive = oracle.naive_simple_cycles

        def counted(g):
            calls.append(g)
            return naive(g)

        monkeypatch.setattr(oracle, "naive_simple_cycles", counted)
        g = helpers.graph_two_loops_funnel()
        reports = oracle_suite(g, (0, 1, 2, 3))
        assert all(report.all_agree for report in reports)
        assert calls == [g]

    def test_entries_come_from_the_runs(self, monkeypatch):
        def flat(report):
            raise AssertionError("the flat entries view was built")

        monkeypatch.setattr(spectrum.ConditionAReport, "entries", property(flat))
        for g in (
            helpers.graph_loop_with_entry(),
            helpers.graph_common_ancestor(),
            helpers.complete_graph(4),
        ):
            [report] = oracle_suite(g, (1,))
            assert report.entries_agree and report.details["entry_count"] > 0
        # a run missing its last entry is caught
        decide = oracle.decide_hausdorff_spectrum

        def drop_last_entry(g):
            verdict = decide(g)
            a = verdict.condition_a
            *runs, (k, run) = a.run_ranks
            short = a.replace(run_ranks=(*runs, (k, run[:-1])))
            return verdict.replace(condition_a=short)

        monkeypatch.setattr(oracle, "decide_hausdorff_spectrum", drop_last_entry)
        assert not oracle_suite(helpers.complete_graph(4), (1,))[0].entries_agree
