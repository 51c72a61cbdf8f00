"""Exact limits of point, character, and fiber-element sequences."""

import json
from fractions import Fraction

import pytest

import helpers
from groupoid_spectrum.convergence import (
    CharSeqSpec,
    DyadicArrowFamily,
    FamilyFormatError,
    HypothesisFailure,
    PointSeqSpec,
    SElemSeqSpec,
    char_seq_converges,
    condition_c_check,
    condition_c_on_S_check,
    parse_family,
    run_family_check,
    run_family_truncated,
)
from groupoid_spectrum.exact import DIVERGENT, AffineSeq, DyadicSeq
from groupoid_spectrum.models import LINE_BRANCH, CharQ, PointY, SElem
from groupoid_spectrum.spectrum import FellLimit, PeriodFamily, fell_subgroup_limit

ORIGIN = PointY(LINE_BRANCH, 0)


def counterexample_parts():
    family = DyadicArrowFamily(
        DyadicSeq.constant(0), AffineSeq(2, 1), PointSeqSpec(None, AffineSeq(2, 1))
    )
    chi_spec = CharSeqSpec(family.source_spec(), DyadicSeq.constant(1))
    return family, chi_spec


class TestPointSequences:
    def test_index_mode_points(self):
        spec = PointSeqSpec(None, AffineSeq(2, 1))
        assert spec.point_at(0) == PointY(0, 1)
        assert spec.point_at(3) == PointY(3, 7)
        assert spec.point_at(0).embed() == (Fraction(1, 2), 0, 0)
        assert spec.point_at(1).embed() == (Fraction(1, 8), 0, 0)

    @pytest.mark.parametrize(
        "branch,a,b,expected",
        [
            (None, 0, 4, PointY(LINE_BRANCH, 4)),
            (None, 2, 1, PointY(LINE_BRANCH, 0)),
            (None, 2, 5, PointY(LINE_BRANCH, 4)),
            (None, 1, 0, DIVERGENT),
            (None, 3, 0, DIVERGENT),
            (5, 0, 7, PointY(5, 7)),
            (5, 1, 0, DIVERGENT),
            (LINE_BRANCH, 0, 3, PointY(LINE_BRANCH, 3)),
            (LINE_BRANCH, 1, 0, DIVERGENT),
        ],
    )
    def test_limits(self, branch, a, b, expected):
        got = PointSeqSpec(branch, AffineSeq(a, b)).limit()
        assert got == expected or got is expected

    def test_index_mode_limit_sits_on_the_line(self):
        # heights 2**-2i sink to 0 while the second coordinate stays put
        spec = PointSeqSpec(None, AffineSeq(2, 1))
        for i in range(1, 6):
            x, y, z = spec.point_at(i).embed()
            assert (y, z) == (0, 0) and x == Fraction(1, 2 ** (2 * i + 1))
        assert spec.limit() == ORIGIN

    def test_translate(self):
        spec = PointSeqSpec(3, AffineSeq(2, 1)).translate(AffineSeq(-2, 4))
        assert spec == PointSeqSpec(3, AffineSeq(0, 5))

    def test_json_roundtrip(self):
        for spec in (PointSeqSpec(None, AffineSeq(2, 1)), PointSeqSpec(4, AffineSeq(0, -2))):
            assert PointSeqSpec.from_json(spec.to_json()) == spec
        assert PointSeqSpec.from_json({"branch": "i", "param": 3}).branch is None

    def test_json_errors(self):
        for bad in (
            {"branch": "x", "param": 0},
            {"branch": True, "param": 0},
            {"param": 0},
            {"branch": 1},
            {"branch": 1, "param": "affine:i"},
            "not an object",
        ):
            with pytest.raises(FamilyFormatError):
                PointSeqSpec.from_json(bad)


class TestCharConvergence:
    def test_constant_family_converges(self):
        _, chi_spec = counterexample_parts()
        report = char_seq_converges(chi_spec, CharQ(Fraction(1), ORIGIN))
        assert report.converges
        assert report.parameter_limit == 1
        assert all(row["agrees"] for row in report.rows)
        assert report.reason == "parameter limit equals candidate parameter"

    def test_transported_family_converges_to_zero(self):
        family, _ = counterexample_parts()
        spec = CharSeqSpec(family.base, DyadicSeq(Fraction(1), -2, -1, Fraction(0)))
        report = char_seq_converges(spec, CharQ(Fraction(0), ORIGIN))
        assert report.converges
        assert report.parameter_limit == 0

    def test_transported_family_misses_one_hat(self):
        family, _ = counterexample_parts()
        spec = CharSeqSpec(family.base, DyadicSeq(Fraction(1), -2, -1, Fraction(0)))
        report = char_seq_converges(spec, CharQ(Fraction(1), ORIGIN))
        assert not report.converges
        assert [row for row in report.rows] == [
            {"test": "1", "phase_difference": "0", "agrees": True},
            {"test": "1/2", "phase_difference": "1/2", "agrees": False},
            {"test": "1/3", "phase_difference": "2/3", "agrees": False},
            {"test": "2", "phase_difference": "0", "agrees": True},
        ]
        assert report.reason == "parameter limit 0 != candidate 1"

    def test_divergent_parameter(self):
        _, chi_spec = counterexample_parts()
        spec = CharSeqSpec(chi_spec.base, DyadicSeq(Fraction(1), 2, 0, Fraction(0)))
        report = char_seq_converges(spec, CharQ(Fraction(0), ORIGIN))
        assert not report.converges
        assert report.parameter_limit is DIVERGENT
        assert report.rows == ()
        assert report.to_json()["parameter_limit"] == "divergent"

    def test_base_mismatch_is_a_usage_error(self):
        _, chi_spec = counterexample_parts()
        with pytest.raises(ValueError, match="differs from candidate base"):
            char_seq_converges(chi_spec, CharQ(Fraction(1), PointY(LINE_BRANCH, 5)))

    def test_divergent_base_is_a_usage_error(self):
        spec = CharSeqSpec(PointSeqSpec(None, AffineSeq(1, 0)), DyadicSeq.constant(1))
        with pytest.raises(ValueError, match="diverges"):
            char_seq_converges(spec, CharQ(Fraction(1), ORIGIN))

    def test_custom_tests_refute(self):
        _, chi_spec = counterexample_parts()
        report = char_seq_converges(
            chi_spec, CharQ(Fraction(1, 2), ORIGIN), tests=(Fraction(1),)
        )
        assert not report.converges
        assert report.rows[0] == {
            "test": "1",
            "phase_difference": "1/2",
            "agrees": False,
        }


class TestConditionC:
    def test_counterexample_violates(self):
        family, chi_spec = counterexample_parts()
        verdict = condition_c_check(
            family, chi_spec, CharQ(Fraction(1), ORIGIN), CharQ(Fraction(0), ORIGIN)
        )
        assert not verdict.holds
        assert verdict.same_fiber
        assert verdict.note == "limits differ within one fiber"
        assert verdict.chi_report.converges and verdict.omega_report.converges

    def test_constant_arrows_satisfy(self):
        base = PointSeqSpec(2, AffineSeq.constant(5))
        family = DyadicArrowFamily(DyadicSeq.constant(0), AffineSeq.constant(0), base)
        chi_spec = CharSeqSpec(family.source_spec(), DyadicSeq.constant(Fraction(1, 2)))
        limit = CharQ(Fraction(1, 2), PointY(2, 5))
        verdict = condition_c_check(family, chi_spec, limit, limit)
        assert verdict.holds and verdict.same_fiber
        assert verdict.note == "limits agree"

    def test_different_fibers_is_vacuous(self):
        base = PointSeqSpec(2, AffineSeq.constant(5))
        family = DyadicArrowFamily(DyadicSeq.constant(0), AffineSeq.constant(3), base)
        chi_spec = CharSeqSpec(family.source_spec(), DyadicSeq.constant(1))
        verdict = condition_c_check(
            family,
            chi_spec,
            CharQ(Fraction(1), PointY(2, 2)),
            CharQ(Fraction(1, 8), PointY(2, 5)),
        )
        assert verdict.holds and not verdict.same_fiber
        assert "vacuous" in verdict.note

    def test_misbased_family_fails_hypotheses(self):
        family, _ = counterexample_parts()
        bad_spec = CharSeqSpec(PointSeqSpec(0, AffineSeq.constant(0)), DyadicSeq.constant(1))
        with pytest.raises(HypothesisFailure, match="arrow sources"):
            condition_c_check(
                family, bad_spec, CharQ(Fraction(1), ORIGIN), CharQ(Fraction(0), ORIGIN)
            )

    def test_nonconvergent_premise_fails_hypotheses(self):
        family, chi_spec = counterexample_parts()
        divergent = CharSeqSpec(chi_spec.base, DyadicSeq(Fraction(1), 2, 0, Fraction(0)))
        with pytest.raises(HypothesisFailure, match="chi_i -> chi fails"):
            condition_c_check(
                family, divergent, CharQ(Fraction(0), ORIGIN), CharQ(Fraction(0), ORIGIN)
            )


class TestConditionCOnS:
    def family(self, n_seq):
        return DyadicArrowFamily(
            DyadicSeq.constant(0), n_seq, PointSeqSpec(None, AffineSeq(2, 1))
        )

    def test_zero_parameter_branch(self):
        family = self.family(AffineSeq(2, 1))
        s_spec = SElemSeqSpec(family.source_spec(), DyadicSeq.constant(0))
        verdict = condition_c_on_S_check(
            family, s_spec, SElem(Fraction(0), ORIGIN), SElem(Fraction(0), ORIGIN)
        )
        assert verdict.holds
        assert verdict.branch == "zero-parameter"

    def test_free_exponent_branch(self):
        base = PointSeqSpec(2, AffineSeq.constant(5))
        family = DyadicArrowFamily(DyadicSeq.constant(0), AffineSeq.constant(0), base)
        s_spec = SElemSeqSpec(family.source_spec(), DyadicSeq.constant(Fraction(1, 2)))
        limit = SElem(Fraction(1, 2), PointY(2, 5))
        verdict = condition_c_on_S_check(family, s_spec, limit, limit)
        assert verdict.holds
        assert verdict.branch == "free-exponent"
        assert verdict.details["eventual_exponent"] == 0

    def test_vacuous_branch(self):
        base = PointSeqSpec(2, AffineSeq.constant(5))
        family = DyadicArrowFamily(DyadicSeq.constant(0), AffineSeq.constant(3), base)
        s_spec = SElemSeqSpec(family.source_spec(), DyadicSeq.constant(1))
        verdict = condition_c_on_S_check(
            family, s_spec, SElem(Fraction(1), PointY(2, 2)), SElem(Fraction(8), PointY(2, 5))
        )
        assert verdict.holds
        assert verdict.branch == "vacuous-different-fibers"

    def test_divergent_transport_has_no_limit(self):
        # 2**(2i+1) r never stabilizes for nonzero r, so the premise fails
        family = self.family(AffineSeq(2, 1))
        s_spec = SElemSeqSpec(family.source_spec(), DyadicSeq.constant(1))
        with pytest.raises(HypothesisFailure, match="never eventually constant"):
            condition_c_on_S_check(
                family, s_spec, SElem(Fraction(1), ORIGIN), SElem(Fraction(0), ORIGIN)
            )

    def test_discrete_fibers_reject_merely_convergent_coordinates(self):
        family = self.family(AffineSeq.constant(0))
        s_spec = SElemSeqSpec(family.source_spec(), DyadicSeq(Fraction(1), -1, 0, Fraction(0)))
        with pytest.raises(HypothesisFailure, match="never eventually constant"):
            condition_c_on_S_check(
                family, s_spec, SElem(Fraction(0), ORIGIN), SElem(Fraction(0), ORIGIN)
            )

    def test_wrong_eventual_value(self):
        family = self.family(AffineSeq.constant(0))
        s_spec = SElemSeqSpec(family.source_spec(), DyadicSeq.constant(1))
        with pytest.raises(HypothesisFailure, match="eventual fiber coordinate"):
            condition_c_on_S_check(
                family, s_spec, SElem(Fraction(2), ORIGIN), SElem(Fraction(2), ORIGIN)
            )


class TestFellLimits:
    def test_constant_periods(self):
        assert fell_subgroup_limit(PeriodFamily(tail=AffineSeq.constant(5))) == FellLimit(True, 5)
        assert fell_subgroup_limit(PeriodFamily(tail=AffineSeq.constant(0))).label() == "{0}"

    def test_growing_periods_vanish(self):
        limit = fell_subgroup_limit(PeriodFamily(tail=AffineSeq(1, 0)))
        assert limit == FellLimit(True, 0)
        assert limit.label() == "{0}"

    def test_constant_pattern(self):
        assert fell_subgroup_limit(PeriodFamily(tail=(3, 3))) == FellLimit(True, 3)

    def test_oscillating_pattern(self):
        limit = fell_subgroup_limit(PeriodFamily(tail=(2, 4)))
        assert not limit.convergent
        assert limit.label() == "not convergent"

    def test_transient_is_ignored(self):
        family = PeriodFamily(tail=AffineSeq.constant(4), transient=(7, 9, 0))
        assert family.period_at(0) == 7
        assert family.period_at(2) == 0
        assert family.period_at(5) == 4
        assert fell_subgroup_limit(family) == FellLimit(True, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodFamily(tail=())
        with pytest.raises(ValueError):
            PeriodFamily(tail=(2, -1))
        with pytest.raises(ValueError):
            PeriodFamily(tail=AffineSeq(-1, 5))
        with pytest.raises(ValueError):
            PeriodFamily(tail=AffineSeq(1, -3))

    def test_window_probe_agreement(self):
        zoo = [
            PeriodFamily(tail=AffineSeq.constant(0)),
            PeriodFamily(tail=AffineSeq.constant(5)),
            PeriodFamily(tail=AffineSeq(1, 0)),
            PeriodFamily(tail=AffineSeq(2, 3)),
            PeriodFamily(tail=(2, 4)),
            PeriodFamily(tail=(3, 3)),
            PeriodFamily(tail=(1, 2, 3)),
            PeriodFamily(tail=(6, 10)),
            PeriodFamily(tail=AffineSeq.constant(3), transient=(5, 0, 1)),
            PeriodFamily(tail=(4,), transient=(9, 9)),
        ]
        for family in zoo:
            window = max(family.period_at(i) for i in range(12)) + 2
            assert helpers.fell_probe_agrees(family, window), family


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

S_FAMILY_DIVERGENT = {
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


class TestFamilyFiles:
    def test_parse_dual_roundtrip(self):
        spec = parse_family(DUAL_FAMILY)
        assert spec.space == "dual"
        assert spec.seq.base == spec.family.source_spec()
        assert parse_family(json.loads(json.dumps(spec.to_json()))) == spec

    def test_parse_s_roundtrip(self):
        spec = parse_family(S_FAMILY_DIVERGENT)
        assert spec.space == "S"
        assert parse_family(spec.to_json()) == spec

    def test_parse_errors(self):
        cases = [
            {},
            {"model": "p-adic"},
            {"model": "dyadic", "space": "weird", "gamma": {}},
            {"model": "dyadic", "gamma": {"q": "0"}},
            {**DUAL_FAMILY, "chi": {}},
            {**DUAL_FAMILY, "limits": {"chi": {"r": "1"}}},
            {**DUAL_FAMILY, "tests": []},
            {**DUAL_FAMILY, "tests": ["1", "x"]},
            {**DUAL_FAMILY, "gamma": {"q": "0", "n": "2i+1", "base": {"branch": 0, "param": 0}}},
            {**S_FAMILY_DIVERGENT, "limits": {"s": {"r": "1/3", "base": {"branch": -1, "param": 0}}, "t": {"r": "0", "base": {"branch": -1, "param": 0}}}},
        ]
        for bad in cases:
            with pytest.raises((FamilyFormatError, ValueError)):
                parse_family(bad)

    def test_run_family_check_dual(self):
        result = run_family_check(parse_family(DUAL_FAMILY))
        assert result["certifying"] is True
        assert result["outcome"] == "verdict"
        assert result["verdict"]["holds"] is False

    def test_run_family_check_s_divergent(self):
        result = run_family_check(parse_family(S_FAMILY_DIVERGENT))
        assert result["outcome"] == "hypothesis-failure"
        assert "never eventually constant" in result["hypothesis_failure"]

    @pytest.mark.parametrize(
        "space, r, base",
        [
            ("dual", "1", {"branch": "i", "param": "affine:2*i+1"}),
            ("dual", [1, -1, 0, 0], {"branch": "i", "param": "affine:2*i+1"}),
            ("dual", [-3, -1, 2, "1/3"], {"branch": 2, "param": "affine:-1*i+4"}),
            ("dual", [5, 1, -3, "2/3"], {"branch": -1, "param": "affine:3*i+0"}),
            ("S", "0", {"branch": "i", "param": "affine:2*i+1"}),
            ("S", [-1, -3, 1, 0], {"branch": "i", "param": "affine:2*i+1"}),
            ("S", [1, -2, 0, 0], {"branch": "i", "param": "affine:2*i+1"}),
            ("dual", [3, 2, 1, "-1/5"], {"branch": 0, "param": "affine:1*i+0"}),
        ],
    )
    def test_truncated_rows_equal_exact_evaluation(self, space, r, base):
        obj = json.loads(json.dumps(DUAL_FAMILY if space == "dual" else S_FAMILY_DIVERGENT))
        obj["gamma"]["base"] = base
        obj["chi" if space == "dual" else "s"]["r"] = r
        spec = parse_family(obj)

        def exact_dist(p, q):
            return max(abs(float(a) - float(b)) for a, b in zip(p.embed(), q.embed()))

        for i in range(2001):
            try:
                # the row from exact terms, rounded only at the end
                param = float(spec.seq.parameter(i))
                shift = spec.family.n(i) * (1 if space == "S" else -1)
                trans_param = float(spec.seq.parameter(i) * Fraction(2) ** shift)
                expected = {
                    "index": i,
                    "parameter": param,
                    "parameter_residual": abs(param - float(spec.limit_chi.r)),
                    "base_residual": exact_dist(spec.seq.base.point_at(i), spec.limit_chi.base),
                    "transported_parameter": trans_param,
                    "transported_residual": abs(trans_param - float(spec.limit_omega.r)),
                    "transported_base_residual": exact_dist(
                        spec.family.base.point_at(i), spec.limit_omega.base
                    ),
                }
            except OverflowError:
                with pytest.raises(FamilyFormatError, match="beyond the float range"):
                    run_family_truncated(spec, i, 1e-9)
            else:
                row = run_family_truncated(spec, i, 1e-9)["row"]
                assert json.dumps(row) == json.dumps(expected), i

    def test_truncated_probe(self):
        spec = parse_family(DUAL_FAMILY)
        far = run_family_truncated(spec, 30, 1e-9)
        assert far["certifying"] is False
        assert far["within_tolerance"] is True
        assert far["row"]["parameter_residual"] == 0.0
        near = run_family_truncated(spec, 5, 1e-9)
        assert near["within_tolerance"] is False
        with pytest.raises(FamilyFormatError):
            run_family_truncated(spec, -1, 1e-9)
