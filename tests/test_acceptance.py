"""Acceptance suite: one test per shipped guarantee, tolerances pinned here.

Each test prints a single summary line; run with ``pytest -v`` to get the
per-criterion pass/fail listing.  Tolerances: exact equality for everything
rational, 1e-10 for SO(3) float residuals, wall-clock bounds of 1 s for the
two demo commands and 300 s for the corpus sweep.
"""

import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import numpy as np
import pytest

import helpers
from corpus import enumerate_validated_multi, enumerate_validated_simple, random_corpus
from groupoid_spectrum.convergence import (
    CharSeqSpec,
    DyadicArrowFamily,
    HypothesisFailure,
    PointSeqSpec,
    SElemSeqSpec,
    char_seq_converges,
    condition_c_on_S_check,
)
from groupoid_spectrum.exact import AffineSeq, DyadicSeq
from groupoid_spectrum.models import (
    LINE_BRANCH,
    ArrowDyadic,
    CharQ,
    CharSO3,
    GroupH,
    PointY,
    SElem,
    dyadic_act_S,
    dyadic_act_dual,
    random_rotation,
    so3_conj_residual,
    so3_spectrum_point,
    so3_transport,
)
from groupoid_spectrum.spectrum import check_condition_a, decide_hausdorff_spectrum
from oracle import naive_entries, naive_simple_cycles, oracle_suite

SO3_TOL = 1e-10
DEMO_TIME_LIMIT = 1.0
SWEEP_TIME_LIMIT = 300.0


def _cli(*args: str):
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "groupoid_spectrum.cli", *args],
        capture_output=True,
        env=helpers.child_env(),
    )
    return proc, perf_counter() - start


def corpus():
    """The verification corpus: 54063 validated graphs, fixed order."""
    for n in (1, 2, 3, 4):
        yield from enumerate_validated_simple(n, 7)
    for n in (1, 2, 3):
        yield from enumerate_validated_multi(n, 5)
    yield from enumerate_validated_simple(5, 6)
    yield from random_corpus(3000, seed=11, max_vertices=5)
    yield from random_corpus(1000, seed=13, max_vertices=8)


def test_criterion_01_chart_translation_identity():
    proc, elapsed = _cli("model-green", "verify-eq3", "--n-max", "20", "--json")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["confirmations"] == 21
    assert report["all_equal"] is True
    for row in report["rows"]:
        n = row["n"]
        expected = [f"1/{2 ** (2 * n + 1)}", "0", "0"]
        assert row["end"] == expected == row["expected"]
        assert row["start"] == [("1" if n == 0 else f"1/{4 ** n}"), "0", "0"]
    assert elapsed < DEMO_TIME_LIMIT
    print(f"criterion 01 PASS: 21/21 exact chart confirmations in {elapsed:.2f}s")


def test_criterion_02_dual_convergence_counterexample():
    proc, elapsed = _cli("model-dyadic", "demo-c-failure", "--n-max", "10", "--json")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    for row in report["rows"]:
        n = row["n"]
        assert row["transported"]["r"] == f"1/{2 ** (2 * n + 1)}"
        assert row["chi"]["r"] == "1"
        assert row["gamma"]["h"] == {"q": "0", "n": 2 * n + 1}
    assert report["limits"]["chi"] == {
        "r": "1",
        "base": {"branch": -1, "param": 0, "embed": ["0", "0", "0"]},
    }
    assert report["limits"]["omega"]["r"] == "0"
    assert report["holds"] is False
    assert report["same_fiber"] is True
    assert report["verdict"] == "condition (c) VIOLATED"
    assert elapsed < DEMO_TIME_LIMIT
    print(f"criterion 02 PASS: exact 2**-(2n+1) table and VIOLATED verdict in {elapsed:.2f}s")


def test_criterion_03_fiber_actions_are_exact():
    rng = random.Random(20260815)
    checked = 0
    for _ in range(1000):
        r = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        p = Fraction(rng.randint(-999, 999), 2 ** rng.randint(0, 10))
        q = Fraction(rng.randint(-999, 999), 2 ** rng.randint(0, 10))
        n = rng.randint(-20, 20)
        base = PointY(rng.randint(-1, 5), rng.randint(-40, 40))
        arrow = ArrowDyadic(GroupH(q, n), base)
        chi = CharQ(r, arrow.source)
        s = SElem(p, arrow.source)
        moved_chi = dyadic_act_dual(arrow, chi)
        moved_s = dyadic_act_S(arrow, s)
        assert moved_chi.r == r / Fraction(2) ** n and moved_chi.base == base
        assert moved_s.r == p * Fraction(2) ** n and moved_s.base == base
        assert moved_chi.r * moved_s.r == r * p  # the pairing is preserved
        checked += 1
    assert checked == 1000
    print("criterion 03 PASS: 1000/1000 exact dual/S action and pairing instances")


def test_criterion_04_corpus_sweep_matches_oracle():
    start = perf_counter()
    total = 0
    disagreements = []
    for g in corpus():
        total += 1
        fast = check_condition_a(g)
        slow_cycles = naive_simple_cycles(g)
        slow_entries = naive_entries(g)
        ok = (
            {c.edge_ids() for c in fast.cycles} == slow_cycles
            and {(c.edge_ids(), e.id) for c, e in fast.entries} == slow_entries
            and fast.passed == (not slow_entries)
        )
        if not ok:
            disagreements.append(g)
    elapsed = perf_counter() - start
    assert total >= 10_000
    assert disagreements == []
    assert elapsed < SWEEP_TIME_LIMIT
    print(f"criterion 04 PASS: {total} graphs, 0 disagreements, {elapsed:.1f}s")


def test_criterion_05_oracle_suite_agreement():
    implication_checked = 0
    for g in corpus():
        verdict = decide_hausdorff_spectrum(g)
        if verdict.condition_a.passed:
            assert verdict.condition_b.status == "pass"
            assert verdict.hausdorff
        else:
            assert verdict.condition_b.status == "skipped"
            assert not verdict.hausdorff
        implication_checked += 1
    suites = 0
    deep_slice = itertools.chain(
        enumerate_validated_simple(3, 9),
        enumerate_validated_simple(4, 7),
        enumerate_validated_multi(2, 4),
        random_corpus(400, seed=29, max_vertices=6),
        [
            helpers.graph_single_loop(),
            helpers.graph_two_loops_funnel(),
            helpers.graph_loop_with_entry(),
            helpers.graph_three_cycle(),
            helpers.graph_common_ancestor(),
        ],
    )
    budgets = (0, 1, 2, 3)
    for g in deep_slice:
        for budget, report in zip(budgets, oracle_suite(g, budgets), strict=True):
            assert report.all_agree, (g, budget, report.details)
            suites += 1
    print(
        f"criterion 05 PASS: entry-free implies separated on {implication_checked} "
        f"graphs; {suites} oracle suites agree"
    )


def test_criterion_06_known_verdicts():
    single = decide_hausdorff_spectrum(helpers.graph_single_loop())
    assert single.hausdorff

    entry = decide_hausdorff_spectrum(helpers.graph_loop_with_entry())
    blob = entry.to_json()
    assert blob["hausdorff"] is False
    assert blob["condition_a"]["entries"] == [{"cycle": ["La"], "entry": "e"}]
    assert blob["condition_a"]["stabilizer_discontinuity"] == [
        {
            "cycle": ["La"],
            "entry": "e",
            "approx_periods": "constant 0",
            "approx_fell_limit": "{0}",
            "period_at_limit": "1Z",
            "continuous": False,
        }
    ]

    funnel = decide_hausdorff_spectrum(helpers.graph_two_loops_funnel())
    blob = funnel.to_json()
    assert blob["hausdorff"] is True
    assert blob["condition_b"]["certificates"] == [
        {"pair": [["La"], ["Lb"]], "u": "a", "v": "b"}
    ]
    print("criterion 06 PASS: single loop / entry loop / funnel verdicts with certificates")


def test_criterion_07_so3_residuals():
    rng = np.random.default_rng(0)
    max_residual = 0.0
    max_invariant = 0.0
    for _ in range(1000):
        v_mat = random_rotation(rng)
        axis = rng.normal(size=3)
        while float(np.linalg.norm(axis)) < 1e-8:
            axis = rng.normal(size=3)
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        max_residual = max(max_residual, so3_conj_residual(v_mat, axis, theta))
        k = int(rng.integers(-5, 6))
        chi = CharSO3.at(axis, k)
        moved = so3_transport(v_mat, chi)
        norm0, k0 = so3_spectrum_point(chi)
        norm1, k1 = so3_spectrum_point(moved)
        max_invariant = max(max_invariant, abs(norm1 - norm0))
        assert k0 == k1
    assert max_residual <= SO3_TOL
    assert max_invariant <= SO3_TOL
    print(
        f"criterion 07 PASS: 1000 trials, conj residual {max_residual:.2e}, "
        f"invariant residual {max_invariant:.2e}, index exact"
    )


def test_criterion_08_convergence_traces_and_s_branches():
    origin = PointY(LINE_BRANCH, 0)
    family = DyadicArrowFamily(
        DyadicSeq.constant(0), AffineSeq(2, 1), PointSeqSpec(None, AffineSeq(2, 1))
    )
    constant = CharSeqSpec(family.source_spec(), DyadicSeq.constant(1))
    transported = CharSeqSpec(family.base, DyadicSeq(Fraction(1), -2, -1, Fraction(0)))

    report = char_seq_converges(constant, CharQ(Fraction(1), origin))
    assert report.converges and report.parameter_limit == 1

    report = char_seq_converges(transported, CharQ(Fraction(0), origin))
    assert report.converges and report.parameter_limit == 0

    report = char_seq_converges(transported, CharQ(Fraction(1), origin))
    assert not report.converges
    assert list(report.rows) == [
        {"test": "1", "phase_difference": "0", "agrees": True},
        {"test": "1/2", "phase_difference": "1/2", "agrees": False},
        {"test": "1/3", "phase_difference": "2/3", "agrees": False},
        {"test": "2", "phase_difference": "0", "agrees": True},
    ]

    zero = SElemSeqSpec(family.source_spec(), DyadicSeq.constant(0))
    verdict = condition_c_on_S_check(
        family, zero, SElem(Fraction(0), origin), SElem(Fraction(0), origin)
    )
    assert verdict.holds and verdict.branch == "zero-parameter"

    still = DyadicArrowFamily(
        DyadicSeq.constant(0), AffineSeq.constant(0), PointSeqSpec(2, AffineSeq.constant(5))
    )
    half = SElemSeqSpec(still.source_spec(), DyadicSeq.constant(Fraction(1, 2)))
    limit = SElem(Fraction(1, 2), PointY(2, 5))
    verdict = condition_c_on_S_check(still, half, limit, limit)
    assert verdict.holds and verdict.branch == "free-exponent"

    ones = SElemSeqSpec(family.source_spec(), DyadicSeq.constant(1))
    with pytest.raises(HypothesisFailure, match="never eventually constant"):
        condition_c_on_S_check(
            family, ones, SElem(Fraction(1), origin), SElem(Fraction(0), origin)
        )
    print(
        "criterion 08 PASS: exact convergence traces; S branches zero-parameter, "
        "free-exponent, and divergent-transport hypothesis failure"
    )


def test_criterion_09_reports_are_deterministic(tmp_path):
    from groupoid_spectrum.digraph import graph_to_text

    funnel = tmp_path / "funnel.graph"
    funnel.write_text(graph_to_text(helpers.graph_two_loops_funnel()))
    entry = tmp_path / "entry.graph"
    entry.write_text(graph_to_text(helpers.graph_loop_with_entry()))
    dual = tmp_path / "dual.json"
    dual.write_text(
        json.dumps(
            {
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
        )
    )
    s_fam = tmp_path / "s.json"
    s_fam.write_text(
        json.dumps(
            {
                "model": "dyadic",
                "space": "S",
                "gamma": {
                    "q": "0",
                    "n": "affine:2*i+1",
                    "base": {"branch": "i", "param": "affine:2*i+1"},
                },
                "s": {"r": "1"},
                "limits": {
                    "s": {"r": "1", "base": {"branch": -1, "param": 0}},
                    "t": {"r": "0", "base": {"branch": -1, "param": 0}},
                },
            }
        )
    )
    commands = [
        ("graph-analyze", str(funnel), "--json"),
        ("graph-analyze", str(entry), "--json"),
        ("graph-orbits", str(funnel), "--json"),
        ("graph-equiv", str(funnel), "--x", "f:La", "--y", ":La", "--json"),
        ("model-green", "verify-eq3", "--n-max", "20", "--json"),
        ("model-dyadic", "demo-c-failure", "--n-max", "10", "--json"),
        ("model-dyadic", "check-c-on-s", "--family", str(s_fam), "--json"),
        ("model-so3", "conj-test", "--trials", "200", "--seed", "7", "--json"),
        ("model-so3", "spectrum", "--v", "1,2,2", "--k", "3", "--json"),
        ("check-family", str(dual), "--json"),
        ("check-family", str(dual), "--truncate", "30", "--json"),
    ]
    for argv in commands:
        first, _ = _cli(*argv)
        second, _ = _cli(*argv)
        assert first.returncode == 0, (argv, first.stderr)
        assert second.returncode == 0
        assert first.stdout == second.stdout, argv
    print(f"criterion 09 PASS: {len(commands)} commands byte-identical across reruns")
