"""The exact dyadic model, the planar flow charts, and the SO(3) model."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupoid_spectrum.models import (
    H_IDENTITY,
    LINE_BRANCH,
    ArrowDyadic,
    CharQ,
    CharSO3,
    FiberMismatch,
    GroupH,
    PointY,
    SElem,
    counterexample_family,
    dyadic_act,
    dyadic_act_S,
    dyadic_act_dual,
    dyadic_chart,
    green_act,
    green_phi,
    h_inv,
    h_mul,
    random_rotation,
    so3_conj_residual,
    so3_rotation,
    so3_spectrum_point,
    so3_transport,
)

dyadics = st.builds(
    lambda num, e: Fraction(num, 2**e),
    st.integers(min_value=-999, max_value=999),
    st.integers(min_value=0, max_value=10),
)
group_elems = st.builds(GroupH, dyadics, st.integers(min_value=-8, max_value=8))


class TestCharts:
    def test_low_arm_values(self):
        assert dyadic_chart(0, 0) == (1, 0, 0)
        assert dyadic_chart(2, 1) == (Fraction(1, 16), 1, 0)
        assert dyadic_chart(3, -4) == (Fraction(1, 64), -4, 0)

    def test_high_arm_values(self):
        assert dyadic_chart(0, 1) == (Fraction(1, 2), 0, 0)
        assert dyadic_chart(2, 3) == (Fraction(1, 32), -2, 0)
        assert dyadic_chart(2, 9) == (Fraction(1, 32), 4, 0)

    def test_translation_identity(self):
        for n in range(21):
            assert dyadic_chart(n, 0) == (Fraction(1, 4**n), 0, 0)
            assert dyadic_chart(n, 2 * n + 1) == (Fraction(1, 2 ** (2 * n + 1)), 0, 0)

    def test_band_is_rejected(self):
        with pytest.raises(ValueError, match="band"):
            dyadic_chart(1, Fraction(3, 2))
        with pytest.raises(ValueError):
            dyadic_chart(-1, 0)

    def test_exactness_type(self):
        assert all(isinstance(c, Fraction) for c in dyadic_chart(4, 7))


class TestGreenFlow:
    def test_line_branch(self):
        assert green_phi(0, 5) == (0, 5, 0)
        assert green_phi(0, Fraction(-7, 3)) == (0, Fraction(-7, 3), 0)

    def test_off_band_agrees_with_charts(self):
        assert green_phi(1, 0) == dyadic_chart(1, 0) == (Fraction(1, 4), 0, 0)
        assert green_phi(2, 9) == dyadic_chart(2, 9)

    def test_band_arc(self):
        x, y, z = green_phi(1, Fraction(3, 2))
        assert x == pytest.approx(0.1875, abs=1e-15)
        assert y == pytest.approx(0.0, abs=1e-12)
        assert z == pytest.approx(1.0, abs=1e-12)

    def test_band_endpoints_match_arms(self):
        # approaching the band edges recovers the closed arm values
        lo = green_phi(1, Fraction(1))
        hi = green_phi(1, Fraction(2))
        assert lo == (Fraction(1, 4), 1, 0)
        assert hi == (Fraction(1, 8), -1, 0)

    def test_flow_translates_parameter(self):
        assert green_act(3, (1, Fraction(1, 2))) == (1, Fraction(7, 2))
        assert green_act(Fraction(1, 4), (0, 0)) == (0, Fraction(1, 4))

    @given(st.integers(0, 5), st.fractions(min_value=-10, max_value=10, max_denominator=64))
    def test_flow_is_additive(self, n, s):
        one_step = green_act(Fraction(2), green_act(Fraction(3), (n, s)))
        assert one_step == green_act(Fraction(5), (n, s))


class TestPointY:
    def test_embeddings(self):
        assert PointY(LINE_BRANCH, 4).embed() == (0, 4, 0)
        assert PointY(0, 0).embed() == (1, 0, 0)
        assert PointY(0, 1).embed() == (Fraction(1, 2), 0, 0)
        assert PointY(3, 0).embed() == (Fraction(1, 64), 0, 0)

    def test_translate(self):
        assert PointY(2, 5).translate(-3) == PointY(2, 2)

    def test_rejects_bad_branch(self):
        with pytest.raises(ValueError):
            PointY(-2, 0)

    def test_to_json(self):
        assert PointY(0, 1).to_json() == {
            "branch": 0,
            "param": 1,
            "embed": ["1/2", "0", "0"],
        }


class TestGroupH:
    def test_spot_product(self):
        assert h_mul(GroupH(Fraction(1, 2), 3), GroupH(Fraction(1, 4), -1)) == GroupH(
            Fraction(5, 2), 2
        )

    def test_rejects_non_dyadic(self):
        with pytest.raises(ValueError, match="dyadic"):
            GroupH(Fraction(1, 3), 0)

    @given(group_elems)
    def test_identity(self, g):
        assert h_mul(g, H_IDENTITY) == h_mul(H_IDENTITY, g) == g

    @given(group_elems)
    def test_inverse(self, g):
        assert h_mul(g, h_inv(g)) == H_IDENTITY
        assert h_mul(h_inv(g), g) == H_IDENTITY

    @given(group_elems, group_elems, group_elems)
    def test_associative(self, g, h, k):
        assert h_mul(h_mul(g, h), k) == h_mul(g, h_mul(h, k))

    @given(group_elems, st.integers(-1, 5), st.integers(-30, 30))
    def test_action_factors_through_translation(self, g, branch, param):
        y = PointY(branch, param)
        assert dyadic_act(g, y) == y.translate(g.n)

    @given(group_elems, group_elems, st.integers(-1, 5), st.integers(-30, 30))
    def test_action_is_compatible_with_product(self, g, h, branch, param):
        y = PointY(branch, param)
        assert dyadic_act(h_mul(g, h), y) == dyadic_act(g, dyadic_act(h, y))


class TestFiberActions:
    def test_arrow_endpoints(self):
        arrow = ArrowDyadic(GroupH(Fraction(0), 3), PointY(2, 7))
        assert arrow.range == PointY(2, 7)
        assert arrow.source == PointY(2, 4)

    @given(
        st.fractions(min_value=-50, max_value=50, max_denominator=99),
        group_elems,
        st.integers(-1, 5),
        st.integers(-30, 30),
    )
    def test_dual_action_scales_down(self, r, h, branch, param):
        arrow = ArrowDyadic(h, PointY(branch, param))
        chi = CharQ(r, arrow.source)
        moved = dyadic_act_dual(arrow, chi)
        assert moved.base == arrow.range
        assert moved.r == r / Fraction(2) ** h.n

    @given(dyadics, group_elems, st.integers(-1, 5), st.integers(-30, 30))
    def test_s_action_scales_up(self, p, h, branch, param):
        arrow = ArrowDyadic(h, PointY(branch, param))
        s = SElem(p, arrow.source)
        moved = dyadic_act_S(arrow, s)
        assert moved.base == arrow.range
        assert moved.r == p * Fraction(2) ** h.n

    @given(
        st.fractions(min_value=-50, max_value=50, max_denominator=99),
        dyadics,
        group_elems,
    )
    def test_duality_pairing_is_preserved(self, r, p, h):
        arrow = ArrowDyadic(h, PointY(0, 0))
        chi = CharQ(r, arrow.source)
        s = SElem(p, arrow.source)
        assert dyadic_act_dual(arrow, chi).r * dyadic_act_S(arrow, s).r == r * p

    def test_fiber_mismatch(self):
        arrow = ArrowDyadic(GroupH(Fraction(0), 1), PointY(0, 1))
        with pytest.raises(FiberMismatch):
            dyadic_act_dual(arrow, CharQ(Fraction(1), PointY(0, 1)))
        with pytest.raises(FiberMismatch):
            dyadic_act_S(arrow, SElem(Fraction(1), PointY(3, 0)))

    def test_selem_requires_dyadic(self):
        with pytest.raises(ValueError, match="dyadic"):
            SElem(Fraction(1, 3), PointY(0, 0))
        CharQ(Fraction(1, 3), PointY(0, 0))  # the dual side takes any rational

    def test_unit_exponent_arrows_fix_fibers(self):
        arrow = ArrowDyadic(GroupH(Fraction(5, 8), 0), PointY(1, 2))
        chi = CharQ(Fraction(7, 3), PointY(1, 2))
        assert dyadic_act_dual(arrow, chi) == chi


class TestCounterexampleFamily:
    def test_first_members(self):
        for i, (gamma_base, chi_base) in enumerate(
            [
                (Fraction(1, 2), Fraction(1)),
                (Fraction(1, 8), Fraction(1, 4)),
                (Fraction(1, 32), Fraction(1, 16)),
                (Fraction(1, 128), Fraction(1, 64)),
            ]
        ):
            gamma, chi = counterexample_family(i)
            assert gamma.base.embed() == (gamma_base, 0, 0)
            assert chi.base.embed() == (chi_base, 0, 0)
            assert chi.r == 1
            assert gamma.h == GroupH(Fraction(0), 2 * i + 1)

    def test_sources_align(self):
        for i in range(6):
            gamma, chi = counterexample_family(i)
            assert gamma.source == chi.base

    def test_transport_halves_per_step(self):
        for i in range(6):
            gamma, chi = counterexample_family(i)
            moved = dyadic_act_dual(gamma, chi)
            assert moved.r == Fraction(1, 2 ** (2 * i + 1))
            assert moved.base == gamma.base

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            counterexample_family(-1)


class TestSO3:
    def test_rotation_matches_quaternion_formula(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            axis = rng.normal(size=3)
            theta = float(rng.uniform(0, 2 * math.pi))
            ours = so3_rotation(axis, theta)
            # the unit quaternion (w, x, y, z) of the rotation, and its matrix
            w = math.cos(theta / 2)
            x, y, z = math.sin(theta / 2) * axis / np.linalg.norm(axis)
            ref = np.array(
                [
                    [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                    [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                    [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
                ]
            )
            assert np.abs(ours - ref).max() < 1e-12

    def test_rotation_is_special_orthogonal(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            r = so3_rotation(rng.normal(size=3), float(rng.uniform(0, 7)))
            assert np.abs(r @ r.T - np.eye(3)).max() < 1e-12
            assert abs(np.linalg.det(r) - 1) < 1e-12

    def test_rejects_zero_axis(self):
        with pytest.raises(ValueError):
            so3_rotation([0, 0, 0], 1.0)

    def test_conj_residual_small_for_rotations(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = random_rotation(rng)
            residual = so3_conj_residual(v, rng.normal(size=3), float(rng.uniform(0, 7)))
            assert residual < 1e-12

    def test_conj_residual_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            so3_conj_residual(np.eye(3) * 2, (1, 0, 0), 1.0)

    def test_random_rotation_is_orthogonal(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = random_rotation(rng)
            assert np.abs(v @ v.T - np.eye(3)).max() < 1e-12
            assert abs(np.linalg.det(v) - 1) < 1e-12

    def test_transport_preserves_invariants(self):
        rng = np.random.default_rng(11)
        chi = CharSO3.at((1.0, 2.0, 2.0), 4)
        assert so3_spectrum_point(chi) == (pytest.approx(3.0), 4)
        for _ in range(30):
            moved = so3_transport(random_rotation(rng), chi)
            norm, k = so3_spectrum_point(moved)
            assert norm == pytest.approx(3.0, abs=1e-12)
            assert k == 4

    def test_char_at_coerces(self):
        chi = CharSO3.at(np.array([1, 0, 0]), 2)
        assert chi.v == (1.0, 0.0, 0.0)
        assert chi.to_json() == {"v": [1.0, 0.0, 0.0], "k": 2}
