"""The exact dyadic model, the planar flow charts, and the SO(3) model."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupoid_spectrum import cli
from groupoid_spectrum.models import (
    LINE_BRANCH,
    ArrowDyadic,
    CharQ,
    CharSO3,
    FiberMismatch,
    GroupH,
    PointY,
    SElem,
    dyadic_act_S,
    dyadic_act_dual,
    dyadic_chart,
    _fma,
    quaternion_rotation,
    random_rotation,
    so3_conj_residual,
    so3_norm_squared,
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
    def test_rejects_non_dyadic(self):
        with pytest.raises(ValueError, match="dyadic"):
            GroupH(Fraction(1, 3), 0)


class TestFiberActions:
    def test_arrow_endpoints(self):
        arrow = ArrowDyadic(GroupH(Fraction(0), 3), PointY(2, 7))
        assert arrow.base == PointY(2, 7)
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
        assert moved.base == arrow.base
        assert moved.r == r / Fraction(2) ** h.n

    @given(dyadics, group_elems, st.integers(-1, 5), st.integers(-30, 30))
    def test_s_action_scales_up(self, p, h, branch, param):
        arrow = ArrowDyadic(h, PointY(branch, param))
        s = SElem(p, arrow.source)
        moved = dyadic_act_S(arrow, s)
        assert moved.base == arrow.base
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


def counterexample_family(i: int) -> tuple[ArrowDyadic, CharQ]:
    """gamma_i and chi_i of the family ``model-dyadic demo-c-failure`` lists (``cli.counterexample_setup``)."""
    for module in cli._USES["model-dyadic"]:
        cli._bind(module)
    family, chi_spec, _, _ = cli.counterexample_setup()
    return family.arrow_at(i), chi_spec.char_at(i)


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


# A scalar reference for the stacked SO(3) functions: one case at a time,
# with numpy's one-vector norm, outer product and 2-D matmul.


def scalar_rotation(axis, theta: float) -> np.ndarray:
    w = np.asarray(axis, dtype=float)
    norm = float(np.linalg.norm(w))
    x, y, z = w / norm
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) * math.cos(theta) + math.sin(theta) * k + (1 - math.cos(theta)) * np.outer(
        w / norm, w / norm
    )


def scalar_residual(v_mat: np.ndarray, axis, theta: float) -> float:
    lhs = v_mat @ scalar_rotation(axis, theta) @ v_mat.T
    rhs = scalar_rotation(v_mat @ np.asarray(axis, dtype=float), theta)
    return float(np.abs(lhs - rhs).max())


def scalar_quaternion_rotation(q: np.ndarray) -> np.ndarray:
    a, b, c, d = q / np.linalg.norm(q)
    return np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
        ]
    )


def conj_trials(seed: int, trials: int):
    """The quaternions, axes, angles and indices ``conj-test`` draws, in its order."""
    rng = np.random.default_rng(seed)
    quaternions, axes, angles, indices = [], [], [], []
    for _ in range(trials):
        quaternions.append(rng.normal(size=4))
        axis = rng.normal(size=3)
        while float(np.linalg.norm(axis)) < 1e-8:
            axis = rng.normal(size=3)
        axes.append(axis * 10.0 ** rng.integers(-150, 151))  # norms far from 1 too
        angles.append(float(rng.uniform(0.0, 2.0 * math.pi)))
        indices.append(int(rng.integers(-5, 6)))
    return np.array(quaternions), np.array(axes), angles, indices


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSO3Stacks:
    """A stack of SO(3) cases gets, bit for bit, what each case gets alone and what the scalar reference gets."""

    @pytest.mark.parametrize("seed", range(40))
    def test_stacks_match_single_cases_and_the_scalar_reference(self, seed):
        quaternions, axes, angles, indices = conj_trials(seed, 100)
        v_mats = quaternion_rotation(quaternions)
        rotations = so3_rotation(axes, angles)
        residuals = so3_conj_residual(v_mats, axes, angles)
        chis = [CharSO3.at(axis, k) for axis, k in zip(axes, indices)]
        moved = so3_transport(v_mats, chis)
        assert v_mats.shape == rotations.shape == (100, 3, 3) and residuals.shape == (100,)
        for i, (q, axis, theta, chi) in enumerate(zip(quaternions, axes, angles, chis)):
            reference = scalar_quaternion_rotation(q)
            assert same_bits(v_mats[i], reference) and same_bits(quaternion_rotation(q), reference)
            assert same_bits(so3_rotation(axis, theta), scalar_rotation(axis, theta))
            assert same_bits(rotations[i], scalar_rotation(axis, theta))
            residual = scalar_residual(reference, axis, theta)
            assert same_bits(residuals[i], residual)
            assert same_bits(so3_conj_residual(reference, axis, theta), residual)
            image = CharSO3.at(reference @ np.asarray(chi.v), chi.k)
            assert moved[i] == image == so3_transport(reference, chi)

    def test_random_rotation_is_the_quaternion_drawn(self):
        rng, replay = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(100):
            assert same_bits(random_rotation(rng), scalar_quaternion_rotation(replay.normal(size=4)))

    def test_one_angle_for_a_stack(self):
        axes = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.0, 1.0, 1.0]])
        assert same_bits(so3_rotation(axes, 0.5), [scalar_rotation(axis, 0.5) for axis in axes])
        v_mats = np.stack([np.eye(3)] * 3)
        assert same_bits(so3_conj_residual(v_mats, axes, 0.5), [0.0, 0.0, 0.0])

    def test_one_bad_case_refuses_the_stack(self):
        with pytest.raises(ValueError, match="nonzero"):
            so3_rotation([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [1.0, 2.0])
        with pytest.raises(ValueError, match="orthogonal"):
            so3_conj_residual(np.stack([np.eye(3), np.eye(3) * 2]), np.ones((2, 3)), [1.0, 2.0])


def fraction_fma(x: float, y: float, z: float) -> float:
    """x * y + z in ``Fraction`` arithmetic, rounded once, with IEEE 754's signed zeros and overflow."""
    exact = Fraction(x) * Fraction(y) + Fraction(z)
    if not exact:
        # an exact zero is -0 only as the sum of two negative zeros
        product_sign = math.copysign(1.0, x) * math.copysign(1.0, y)
        return -0.0 if not (x and y) and product_sign < 0 and math.copysign(1.0, z) < 0 else 0.0
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def same_float(a: float, b: float) -> bool:
    """Equal, with the sign of a zero told apart."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


SMALLEST = 5e-324
FMA_EDGES = [0.0, -0.0, SMALLEST, -SMALLEST, 2.2250738585072014e-308, 1e-160, -1e-160, 1.5e-162,
             0.5, 1.0, -1.0, 3.0, 1e154, 1.3407807929942596e154, 1e300, -1e300,
             1.7976931348623157e308, -1.7976931348623157e308]


class TestFma:
    """``_fma`` rounds x * y + z once, as ``Fraction`` arithmetic then one conversion does."""

    @pytest.mark.parametrize("x", FMA_EDGES)
    def test_edge_values(self, x):
        for y in FMA_EDGES:
            for z in FMA_EDGES:
                assert same_float(_fma(x, y, z), fraction_fma(x, y, z)), (x, y, z)

    def test_named_cases(self):
        # signed zeros: -0 only from two negative zeros
        assert same_float(_fma(-0.0, 1.0, -0.0), -0.0)
        assert same_float(_fma(0.0, -1.0, 0.0), 0.0)
        assert same_float(_fma(2.0, 3.0, -6.0), 0.0)
        # a product below the subnormals rounds to a zero of its sign
        assert same_float(_fma(1e-200, -1e-200, 0.0), -0.0)
        # one rounding: the product's low bits survive where x * y + z loses them
        x = 1.0 + 2.0**-30
        assert _fma(x, x, -1.0) == 2.0**-29 + 2.0**-60 != x * x - 1.0
        # a subnormal result is exact
        assert _fma(1e-160, 1e-160, 0.0) == float(Fraction(1e-160) ** 2)
        # past the float range
        assert _fma(1e300, 1e10, 0.0) == math.inf and _fma(-1e300, 1e10, 1.0) == -math.inf
        assert _fma(1.7976931348623157e308, 1.0, 1.7976931348623157e308) == math.inf
        # a product past the range brought back by z
        big = 1.7976931348623157e308
        assert _fma(big, 1.5, -big) == big * 0.5

    def test_non_finite_arguments(self):
        assert math.isnan(_fma(math.nan, 1.0, 1.0)) and math.isnan(_fma(math.inf, 0.0, 1.0))
        assert _fma(math.inf, 2.0, 1.0) == math.inf and _fma(1e300, 1e300, -math.inf) == -math.inf

    @given(st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_finite_floats(self, x, y, z):
        assert same_float(_fma(x, y, z), fraction_fma(x, y, z))

    def test_norm_is_two_rounded_fmas(self):
        # |v| is the square root of fma(z, z, fma(y, y, x * x)), each step rounded once
        rng = random.Random(17)
        for scale in (1.0, math.exp(30), math.exp(-30)):
            for _ in range(2000):
                x, y, z = (rng.gauss(0.0, 1.0) * scale for _ in range(3))
                expected = math.sqrt(fraction_fma(z, z, fraction_fma(y, y, x * x)))
                assert so3_spectrum_point(CharSO3.at((x, y, z), 0))[0] == expected
        assert so3_norm_squared((1e200, 1e200, 1e200)) == math.inf
        assert so3_norm_squared((1e-170, 1e-170, 0.0)) < 2.2250738585072014e-308
