"""Exact rational arithmetic and a closed catalog of integer-indexed sequences.

Rationals are ``fractions.Fraction`` throughout; only the float views of the
numeric probe (``pow2_sum_float``) round, once, to the nearest float.  The
sequence catalog covers two families that are closed under the operations
the model groupoids need:

* ``DyadicSeq``: i |-> alpha * 2**(beta*i + delta) + gamma
* ``AffineSeq``: i |-> a*i + b  (integer coefficients)

Both expose exact term evaluation and an exact limit, where the limit is
either a rational or the ``DIVERGENT`` sentinel.  Only the commands that
compute with rationals load this module, and with it ``fractions`` and
``decimal``: the graph decision reads its Fell limits of period subgroups
from ``spectrum``, and ``InputError`` is defined at the package root and
re-exported here.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from . import InputError
from ._record import Record

__all__ = [
    "CatalogError",
    "InputError",
    "DIVERGENT",
    "DyadicSeq",
    "AffineSeq",
    "parse_rational",
    "format_rational",
    "pow2_scale",
    "pow2_sum_float",
    "scale_pow2_affine",
]


class CatalogError(InputError):
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
    """Parse "p/q" or "p" (also accepts a plain int); raises ValueError otherwise.

    Decimals such as "0.5" are exact and accepted.  Exponent notation is not:
    "1e999999999" would build a billion-digit integer from twelve characters.
    """
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str) or "e" in text.lower():
        raise ValueError(f"not a rational: {text!r}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:  # "1/0"; its own text names only Fraction(1, 0)
        raise ValueError(f"not a rational: {text!r}") from None


def format_rational(r: Fraction) -> str:
    """Render as "p/q", omitting the denominator when it is 1."""
    return str(Fraction(r))


def pow2_scale(r: Fraction, n: int) -> Fraction:
    """Exact r * 2**n for any integer n."""
    r = Fraction(r)
    if n >= 0:
        return r * (1 << n)
    return r / (1 << (-n))


def _magnitude(r: Fraction, e: int) -> int:
    """The m with 2**(m - 1) < |r * 2**e| < 2**(m + 1), for r != 0."""
    return e + abs(r.numerator).bit_length() - r.denominator.bit_length()


def pow2_sum_float(x: Fraction, p: int, y: Fraction, q: int) -> float:
    """``float(x * 2**p + y * 2**q)``, rounded once, at a cost bounded by the
    sizes of x and y, not by p and q.

    Raises OverflowError when the sum is beyond the float range.
    """
    terms = sorted(((r, e) for r, e in ((x, p), (y, q)) if r), key=lambda t: -_magnitude(*t))
    if len(terms) == 2 and _magnitude(*terms[1]) >= _magnitude(*terms[0]) - 3:
        # terms of near magnitude may cancel: add them at the lower exponent,
        # which differs from the higher by no more than their bit sizes
        (r, e), (s, f) = terms
        low = min(e, f)
        total = pow2_scale(r, e - low) + pow2_scale(s, f - low)
        terms = [(total, low)] if total else []
    if not terms:
        return 0.0
    (r, e), *smaller = terms
    m = _magnitude(r, e)
    # a smaller term is below 2**(m - 3), so 2**(m - 2) < |sum| < 2**(m + 2)
    if m - 2 >= 1024:
        raise OverflowError("dyadic term beyond the float range")
    if m + 2 <= -1075:
        return math.copysign(0.0, r)
    total = pow2_scale(r, e)
    for s, f in smaller:
        # Every rounding boundary of a float is a multiple of 2**-1075, and
        # r * 2**e lies at least 2**k from any it is not on, so a smaller
        # term below 2**k rounds as any other of its sign.
        k = min(e, -1075) - r.denominator.bit_length()
        if _magnitude(s, f) < k:
            s, f = Fraction(1 if s > 0 else -1), k
        total += pow2_scale(s, f)
    return float(total)


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
        except ValueError:
            pass
    raise CatalogError(f"not a rational: {obj!r}")


class DyadicSeq(Record):
    """The sequence i |-> alpha * 2**(beta*i + delta) + gamma for i >= 0.

    Constant sequences normalize to alpha == 0 (a sequence with beta == 0 is
    folded into gamma), so after construction:  eventually constant iff
    alpha == 0, and divergent iff beta > 0.
    """

    __slots__ = ("alpha", "beta", "delta", "gamma")

    def __init__(self, alpha: Fraction, beta: int, delta: int, gamma: Fraction) -> None:
        alpha = Fraction(alpha)
        gamma = Fraction(gamma)
        if alpha == 0 or beta == 0:
            gamma = pow2_scale(alpha, delta) + gamma
            alpha = Fraction(0)
            beta = delta = 0
        super().__init__(alpha, beta, delta, gamma)

    @classmethod
    def constant(cls, value: Fraction | int | str) -> "DyadicSeq":
        return cls(Fraction(0), 0, 0, parse_rational(value) if isinstance(value, str) else Fraction(value))

    def __call__(self, i: int) -> Fraction:
        if i < 0:
            raise ValueError("sequence index must be >= 0")
        return pow2_scale(self.alpha, self.beta * i + self.delta) + self.gamma

    def float_at(self, i: int, shift: int = 0) -> float:
        """``float(self(i) * 2**shift)`` at a cost that does not grow with i or shift.

        Raises OverflowError when the term is beyond the float range.
        """
        if i < 0:
            raise ValueError("sequence index must be >= 0")
        return pow2_sum_float(self.alpha, self.beta * i + self.delta + shift, self.gamma, shift)

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


class AffineSeq(Record):
    """The integer sequence i |-> a*i + b for i >= 0."""

    __slots__ = ("a", "b")

    @classmethod
    def constant(cls, value: int) -> "AffineSeq":
        return cls(0, value)

    def __call__(self, i: int) -> int:
        if i < 0:
            raise ValueError("sequence index must be >= 0")
        return self.a * i + self.b

    def limit(self) -> int | _Divergent:
        return self.b if self.a == 0 else DIVERGENT

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
