"""Exact rational arithmetic and a closed catalog of integer-indexed sequences.

Rationals are ``fractions.Fraction`` throughout; nothing in this package ever
rounds a rational.  The sequence catalog covers two families that are closed
under the operations the model groupoids need:

* ``DyadicSeq``: i |-> alpha * 2**(beta*i + delta) + gamma
* ``AffineSeq``: i |-> a*i + b  (integer coefficients)

Both expose exact term evaluation and an exact limit, where the limit is
either a rational or the ``DIVERGENT`` sentinel.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "CatalogError",
    "DIVERGENT",
    "Rational",
    "DyadicSeq",
    "AffineSeq",
    "parse_rational",
    "format_rational",
    "pow2_scale",
    "rational_inverse",
    "scale_pow2_affine",
]

Rational = Fraction


class CatalogError(ValueError):
    """An operation would leave the closed sequence catalog."""


class _Divergent:
    """Sentinel limit value for sequences without a finite limit."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "DIVERGENT"


DIVERGENT = _Divergent()


def parse_rational(text: str | int) -> Fraction:
    """Parse "p/q" or "p" (also accepts a plain int)."""
    if isinstance(text, int):
        return Fraction(text)
    return Fraction(text.strip())


def format_rational(r: Fraction) -> str:
    """Render as "p/q", omitting the denominator when it is 1."""
    return str(Fraction(r))


def pow2_scale(r: Fraction, n: int) -> Fraction:
    """Exact r * 2**n for any integer n."""
    r = Fraction(r)
    if n >= 0:
        return r * (1 << n)
    return r / (1 << (-n))


def rational_inverse(r: Fraction) -> Fraction:
    """Multiplicative inverse; raises ZeroDivisionError on 0."""
    r = Fraction(r)
    if r == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse")
    return 1 / r


def _is_int(value) -> bool:
    """A JSON integer; bool is an int subclass, so true must not pass for 1."""
    return isinstance(value, int) and not isinstance(value, bool)


_INT_RE = re.compile(r"-?\d+")


def _json_int(obj) -> int:
    """An integer given as a JSON integer or an integer string."""
    if _is_int(obj):
        return obj
    if isinstance(obj, str) and _INT_RE.fullmatch(obj.strip()):
        return int(obj)
    raise CatalogError(f"not an integer: {obj!r}")


def _json_rational(obj) -> Fraction:
    """A rational given as a JSON integer or a "p/q" string."""
    if _is_int(obj):
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            return parse_rational(obj)
        except (ValueError, ZeroDivisionError):
            pass
    raise CatalogError(f"not a rational: {obj!r}")


@dataclass(frozen=True)
class DyadicSeq:
    """The sequence i |-> alpha * 2**(beta*i + delta) + gamma for i >= 0.

    Constant sequences normalize to alpha == 0 (a sequence with beta == 0 is
    folded into gamma), so after construction:  eventually constant iff
    alpha == 0, and divergent iff beta > 0.
    """

    alpha: Fraction
    beta: int
    delta: int
    gamma: Fraction

    def __post_init__(self) -> None:
        alpha = Fraction(self.alpha)
        gamma = Fraction(self.gamma)
        beta, delta = self.beta, self.delta
        if alpha == 0 or beta == 0:
            gamma = pow2_scale(alpha, delta) + gamma
            alpha = Fraction(0)
            beta = delta = 0
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "gamma", gamma)

    @classmethod
    def constant(cls, value: Fraction | int | str) -> "DyadicSeq":
        return cls(Fraction(0), 0, 0, parse_rational(value) if isinstance(value, str) else Fraction(value))

    def __call__(self, i: int) -> Fraction:
        if i < 0:
            raise ValueError("sequence index must be >= 0")
        return pow2_scale(self.alpha, self.beta * i + self.delta) + self.gamma

    def float_at(self, i: int) -> float:
        """``float(self(i))`` at a cost that does not grow with i.

        Raises OverflowError when the term is beyond the float range.
        """
        if i < 0:
            raise ValueError("sequence index must be >= 0")
        alpha, gamma = self.alpha, self.gamma
        e = self.beta * i + self.delta
        # |alpha| > 2**-bits(den alpha) and |gamma| < 2**bits(num gamma), so
        # past this exponent the term is at least 2**1024 in magnitude
        if e - alpha.denominator.bit_length() > max(1024, abs(gamma.numerator).bit_length()):
            raise OverflowError("dyadic term beyond the float range")
        # Every rounding boundary of a float is a multiple of 2**-1075, and
        # only gamma itself may lie within 1 / (den gamma * 2**1075) of gamma,
        # so a power term smaller than that rounds as any other of its sign.
        sticky = 1075 + gamma.denominator.bit_length()
        if e + abs(alpha.numerator).bit_length() <= -sticky:
            return float(gamma + Fraction(1 if alpha > 0 else -1, 1 << sticky))
        return float(pow2_scale(alpha, e) + gamma)

    def is_eventually_constant(self) -> bool:
        return self.alpha == 0

    def limit(self) -> Fraction | _Divergent:
        """Exact limit, or DIVERGENT (which happens iff beta > 0 here)."""
        if self.alpha == 0:
            return self.gamma
        if self.beta > 0:
            return DIVERGENT
        return self.gamma

    def to_json(self) -> list:
        return [format_rational(self.alpha), self.beta, self.delta, format_rational(self.gamma)]

    @classmethod
    def from_json(cls, obj) -> "DyadicSeq":
        if isinstance(obj, str) or _is_int(obj):
            return cls.constant(_json_rational(obj))
        if isinstance(obj, (list, tuple)) and len(obj) == 4:
            alpha, beta, delta, gamma = obj
            return cls(
                _json_rational(alpha), _json_int(beta), _json_int(delta), _json_rational(gamma)
            )
        raise CatalogError(f"not a dyadic sequence spec: {obj!r}")


def scale_pow2_affine(seq: DyadicSeq, a: int, b: int) -> DyadicSeq:
    """Termwise product seq(i) * 2**(a*i + b), when the result stays dyadic.

    Closed exactly when seq is a pure power term (gamma == 0), a pure
    constant (alpha == 0), or the scaling exponent is constant (a == 0).
    """
    if seq.alpha == 0:
        return DyadicSeq(seq.gamma, a, b, Fraction(0))
    if seq.gamma == 0:
        return DyadicSeq(seq.alpha, seq.beta + a, seq.delta + b, Fraction(0))
    if a == 0:
        return DyadicSeq(seq.alpha, seq.beta, seq.delta + b, pow2_scale(seq.gamma, b))
    raise CatalogError(
        "product of a two-term dyadic sequence and a non-constant power leaves the catalog"
    )


_AFFINE_RE = re.compile(r"^affine:(-?\d+)\*i([+-]\d+)?$")


@dataclass(frozen=True)
class AffineSeq:
    """The integer sequence i |-> a*i + b for i >= 0."""

    a: int
    b: int

    @classmethod
    def constant(cls, value: int) -> "AffineSeq":
        return cls(0, value)

    def __call__(self, i: int) -> int:
        if i < 0:
            raise ValueError("sequence index must be >= 0")
        return self.a * i + self.b

    def is_eventually_constant(self) -> bool:
        return self.a == 0

    def limit(self) -> int | _Divergent:
        return self.b if self.a == 0 else DIVERGENT

    def shift(self, offset: int) -> "AffineSeq":
        """Termwise addition of a constant."""
        return AffineSeq(self.a, self.b + offset)

    def negate(self) -> "AffineSeq":
        return AffineSeq(-self.a, -self.b)

    def to_json(self) -> str:
        sign = "+" if self.b >= 0 else "-"
        return f"affine:{self.a}*i{sign}{abs(self.b)}"

    @classmethod
    def from_json(cls, obj) -> "AffineSeq":
        if _is_int(obj):
            return cls.constant(obj)
        if isinstance(obj, str):
            m = _AFFINE_RE.match(obj.replace(" ", ""))
            if m:
                return cls(int(m.group(1)), int(m.group(2) or 0))
            if _INT_RE.fullmatch(obj.strip()):
                return cls.constant(int(obj))
        raise CatalogError(f"not an affine sequence spec: {obj!r} (expected 'affine:a*i+b' or an integer)")
