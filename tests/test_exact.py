"""Exact arithmetic and the closed sequence catalog."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupoid_spectrum.exact import (
    DIVERGENT,
    AffineSeq,
    CatalogError,
    DyadicSeq,
    format_rational,
    parse_rational,
    pow2_scale,
    pow2_sum_float,
    scale_pow2_affine,
)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
small_ints = st.integers(min_value=-12, max_value=12)


class TestRationalHelpers:
    def test_parse_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational(" -2 ") == Fraction(-2)
        assert parse_rational(7) == Fraction(7)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("three quarters")
        with pytest.raises(ValueError, match=r"^not a rational: '1/0'$"):
            parse_rational("1/0")

    def test_format_reduces(self):
        assert format_rational(Fraction(8, 4)) == "2"
        assert format_rational(Fraction(-1, 3)) == "-1/3"
        assert format_rational(Fraction(0)) == "0"

    @given(rationals)
    def test_format_parse_roundtrip(self, r):
        assert parse_rational(format_rational(r)) == r

    def test_pow2_scale_values(self):
        assert pow2_scale(Fraction(1), -3) == Fraction(1, 8)
        assert pow2_scale(Fraction(3, 4), 5) == 24
        assert pow2_scale(Fraction(5), 0) == 5

    @given(rationals, small_ints)
    def test_pow2_scale_matches_power(self, r, n):
        assert pow2_scale(r, n) == r * Fraction(2) ** n

    @given(rationals, small_ints)
    def test_pow2_scale_inverts(self, r, n):
        assert pow2_scale(pow2_scale(r, n), -n) == r


class TestDyadicSeq:
    def test_pure_power_values(self):
        seq = DyadicSeq(Fraction(1), -2, -1, Fraction(0))
        assert [seq(i) for i in range(3)] == [Fraction(1, 2), Fraction(1, 8), Fraction(1, 32)]
        assert seq.limit() == 0
        assert not seq.is_eventually_constant()

    def test_constant_normalization(self):
        seq = DyadicSeq(Fraction(5), 0, 3, Fraction(2))
        assert (seq.alpha, seq.beta, seq.delta, seq.gamma) == (0, 0, 0, 42)
        assert seq.is_eventually_constant()
        assert seq.limit() == 42
        assert seq(0) == seq(17) == 42

    def test_zero_alpha_folds(self):
        seq = DyadicSeq(Fraction(0), -3, 9, Fraction(1, 2))
        assert (seq.alpha, seq.beta, seq.delta) == (0, 0, 0)
        assert seq.gamma == Fraction(1, 2)

    def test_divergent(self):
        seq = DyadicSeq(Fraction(1), 2, 1, Fraction(0))
        assert seq.limit() is DIVERGENT
        assert seq(3) == 2**7
        assert not seq.is_eventually_constant()

    def test_two_term_limit(self):
        seq = DyadicSeq(Fraction(3), -1, 0, Fraction(1, 4))
        assert seq.limit() == Fraction(1, 4)
        assert seq(0) == Fraction(13, 4)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            DyadicSeq.constant(1)(-1)

    @given(
        rationals.filter(lambda r: r != 0),
        st.integers(min_value=-5, max_value=-1),
        st.integers(min_value=-8, max_value=8),
        rationals,
        st.integers(min_value=0, max_value=12),
    )
    def test_tail_bound(self, alpha, beta, delta, gamma, k):
        # |seq(i) - limit| < 2**-k once i clears the closed-form threshold
        seq = DyadicSeq(alpha, beta, delta, gamma)
        bits = abs(alpha.numerator).bit_length()
        i0 = (k + abs(delta) + bits) // abs(beta) + 1
        assert abs(seq(i0) - seq.limit()) < Fraction(1, 2**k)

    @pytest.mark.parametrize(
        "seq",
        [
            DyadicSeq(Fraction(1), -1, 0, Fraction(0)),
            DyadicSeq(Fraction(-3, 7), -1, 5, Fraction(0)),  # ends at -0.0
            DyadicSeq(Fraction(5), -3, 2, Fraction(1, 3)),
            # gamma on a rounding tie (1 + 2**-53) and halfway to the least
            # subnormal: the sign of the vanishing term decides the float
            DyadicSeq(Fraction(1), -1, 0, Fraction(2**53 + 1, 2**53)),
            DyadicSeq(Fraction(-1), -1, 0, Fraction(2**53 + 1, 2**53)),
            DyadicSeq(Fraction(1), -1, 0, Fraction(1, 2**1075)),
            DyadicSeq(Fraction(-1), -1, 0, Fraction(1, 2**1075)),
            DyadicSeq(Fraction(7, 3), 1, -40, Fraction(-5)),  # leaves the float range
            DyadicSeq(Fraction(-1), 1, 0, Fraction(2**1030)),  # back into it at i = 1030 only
            DyadicSeq.constant(Fraction(2, 3)),
        ],
    )
    def test_float_at_rounds_the_exact_term(self, seq):
        for i in range(2001):
            try:
                expected = repr(float(seq(i)))
            except OverflowError:
                with pytest.raises(OverflowError):
                    seq.float_at(i)
            else:
                assert repr(seq.float_at(i)) == expected, i

    def test_float_at_far_out(self):
        # the exact terms have billions of bits
        assert repr(DyadicSeq(Fraction(-1), -1, 0, Fraction(0)).float_at(3_000_000_000)) == "-0.0"
        assert DyadicSeq(Fraction(1), -2, 0, Fraction(1, 3)).float_at(10**30) == 1 / 3
        with pytest.raises(OverflowError):
            DyadicSeq(Fraction(1), 1, 0, Fraction(0)).float_at(3_000_000_000)

    def test_float_at_shift_scales_the_exact_term(self):
        seq = DyadicSeq(Fraction(-1), -3, 1, Fraction(0))
        assert repr(seq.float_at(400)) == "-0.0"
        assert seq.float_at(400, 801) == -(2.0**-398)
        assert DyadicSeq(Fraction(1), -2, 0, Fraction(0)).float_at(10**9, 2 * 10**9 + 1) == 2.0
        assert DyadicSeq.constant(0).float_at(600, 1201) == 0.0

    def test_json_roundtrip(self):
        seq = DyadicSeq(Fraction(3, 4), -2, 1, Fraction(-5))
        assert seq.to_json() == ["3/4", -2, 1, "-5"]
        assert DyadicSeq.from_json(seq.to_json()) == seq

    def test_json_scalar_forms(self):
        assert DyadicSeq.from_json("3/4") == DyadicSeq.constant(Fraction(3, 4))
        assert DyadicSeq.from_json(5) == DyadicSeq.constant(5)

    def test_json_rejects_other_shapes(self):
        with pytest.raises(CatalogError):
            DyadicSeq.from_json({"alpha": 1})
        with pytest.raises(ValueError):
            DyadicSeq.from_json(["1", 2])

    def test_json_rejects_boolean(self):
        # true is a Python int; it must not pass for the constant 1
        with pytest.raises(CatalogError):
            DyadicSeq.from_json(True)

    def test_json_rejects_fractional_exponent(self):
        with pytest.raises(CatalogError):
            DyadicSeq.from_json([1, 1.9, 0, 0])

    def test_json_rejects_unreadable_terms(self):
        for bad in (["x", 1, 0, 0], ["1/0", 1, 0, 0], [False, 1, 0, 0], ["1", "2.5", 0, 0]):
            with pytest.raises(CatalogError):
                DyadicSeq.from_json(bad)
        assert DyadicSeq.from_json(["3/4", "-2", 1, "-5"]) == DyadicSeq(Fraction(3, 4), -2, 1, Fraction(-5))

    def test_constant_to_json(self):
        assert DyadicSeq.constant(42).to_json() == ["0", 0, 0, "42"]


class TestScalePow2Affine:
    @given(rationals, small_ints, small_ints)
    def test_constant_branch(self, c, a, b):
        seq = DyadicSeq.constant(c)
        scaled = scale_pow2_affine(seq, a, b)
        for i in range(6):
            assert scaled(i) == c * Fraction(2) ** (a * i + b)

    @given(rationals.filter(lambda r: r != 0), small_ints, small_ints, small_ints, small_ints)
    def test_pure_power_branch(self, alpha, beta, delta, a, b):
        seq = DyadicSeq(alpha, beta, delta, Fraction(0))
        scaled = scale_pow2_affine(seq, a, b)
        for i in range(6):
            assert scaled(i) == seq(i) * Fraction(2) ** (a * i + b)

    @given(rationals.filter(lambda r: r != 0), rationals.filter(lambda r: r != 0), small_ints)
    def test_constant_exponent_branch(self, alpha, gamma, b):
        seq = DyadicSeq(alpha, -1, 0, gamma)
        scaled = scale_pow2_affine(seq, 0, b)
        for i in range(6):
            assert scaled(i) == seq(i) * Fraction(2) ** b

    def test_out_of_catalog(self):
        seq = DyadicSeq(Fraction(1), -1, 0, Fraction(5))
        with pytest.raises(CatalogError):
            scale_pow2_affine(seq, 1, 0)


class TestAffineSeq:
    def test_values_and_limit(self):
        seq = AffineSeq(2, 1)
        assert [seq(i) for i in range(4)] == [1, 3, 5, 7]
        assert seq.limit() is DIVERGENT
        assert AffineSeq.constant(4).limit() == 4

    def test_negate(self):
        assert AffineSeq(2, 1).negate() == AffineSeq(-2, -1)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            AffineSeq(1, 0)(-2)

    @given(st.integers(-9, 9), st.integers(-99, 99))
    def test_json_roundtrip(self, a, b):
        seq = AffineSeq(a, b)
        assert AffineSeq.from_json(seq.to_json()) == seq

    def test_json_forms(self):
        assert AffineSeq.from_json("affine:2*i+1") == AffineSeq(2, 1)
        assert AffineSeq.from_json("affine:-1*i-3") == AffineSeq(-1, -3)
        assert AffineSeq.from_json("affine:0*i") == AffineSeq(0, 0)
        assert AffineSeq.from_json(5) == AffineSeq.constant(5)
        assert AffineSeq.from_json("-7") == AffineSeq.constant(-7)

    def test_json_rejects_boolean(self):
        # true is a Python int; it must not pass for the constant 1
        with pytest.raises(CatalogError):
            AffineSeq.from_json(True)

    def test_json_rejects_garbage(self):
        for bad in ("affine:i+1", "2i+1", "affine:2*i+1/2", [1, 2]):
            with pytest.raises((CatalogError, TypeError)):
                AffineSeq.from_json(bad)


rationals = st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**80))
exponents = st.integers(-1300, 1300)


def assert_rounds_once(x, p, y, q):
    try:
        expected = repr(float(pow2_scale(x, p) + pow2_scale(y, q)))
    except OverflowError:
        with pytest.raises(OverflowError):
            pow2_sum_float(x, p, y, q)
    else:
        assert repr(pow2_sum_float(x, p, y, q)) == expected


class TestPow2SumFloat:
    @given(rationals, exponents, rationals, exponents)
    def test_rounds_the_exact_sum(self, x, p, y, q):
        assert_rounds_once(x, p, y, q)

    @given(rationals, exponents, exponents, rationals, st.integers(-1300, 0))
    def test_rounds_near_cancellation(self, x, p, q, eps, low):
        # y * 2**q is -x * 2**p up to a term eps * 2**low far below both
        assert_rounds_once(x, p, pow2_scale(-x, p - q) + pow2_scale(eps, low - q), q)

    @pytest.mark.parametrize(
        "x, p, y, q",
        [
            (1, 0, 1, -53),  # 1 + 2**-53 is a tie, rounded to even
            (1, 0, 3, -55),  # just above the tie
            (1, 1024, -1, 970),  # the largest float, exactly
            (1, 1024, -1, 969),  # halfway above it: overflows
            (1, -1075, 1, -3000),  # above half the least subnormal
            (-1, -1075, 1, -3000),  # below minus half of it: -0.0
            (Fraction(1, 3), 0, 1, -2000),
            # magnitude bounds from bit lengths are loose by a factor of 2 each
            # way: these terms sit at the loose ends of their bounds
            (Fraction(1, 2**20 - 1), 1045, Fraction(-(2**20 - 1), 2**19), 1024),  # about 2**1006
            (Fraction(1, 2**20 - 1), 1044, -1, 1021),  # pulled below the largest float
            (Fraction(2**20 - 1, 2**19), -1076, 1, -1090),  # pushed past half the least subnormal
        ],
    )
    def test_edges_of_the_float_range(self, x, p, y, q):
        assert_rounds_once(Fraction(x), p, Fraction(y), q)

    def test_far_exponents(self):
        # the exact sums have billions of bits
        assert pow2_sum_float(Fraction(0), 10**12, Fraction(0), -(10**12)) == 0.0
        assert pow2_sum_float(Fraction(3), 10**10, Fraction(-3), 10**10) == 0.0
        assert pow2_sum_float(Fraction(1), 10**10, Fraction(-1, 2), 10**10 + 1) == 0.0
        assert pow2_sum_float(Fraction(5), -(10**10), Fraction(1, 3), 0) == 1 / 3
        assert repr(pow2_sum_float(Fraction(-1), -(10**10), Fraction(1), -(10**10) - 1)) == "-0.0"
        with pytest.raises(OverflowError):
            pow2_sum_float(Fraction(1), 10**10, Fraction(-1), 10**10 - 1)
