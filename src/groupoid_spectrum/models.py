"""Model groupoids: a flow on a planar set, its dyadic discretization, and SO(3).

The planar set Y is a disjoint union of orbit charts.  Chart k >= 0 is the
image of the piecewise map

    s |-> (2**(-2k), s, 0)                       for s <= k
    s |-> (2**(-2k) - (s-k) * 2**(-2k-1),
           k*cos(pi*(s-k)), k*sin(pi*(s-k)))     for k < s < k+1
    s |-> (2**(-2k-1), s - 1 - 2k, 0)            for s >= k+1

and the limit line {(0, s, 0)} is its own orbit, tagged LINE_BRANCH.  At
integer parameters every chart value is exact; the open band (k, k+1), the
only place floats would appear, is refused (``dyadic_chart``).

The dyadic group H = Q_D x| Z (dyadic rationals by integers, (q,n)(p,m) =
(q + 2**n p, n+m)) acts on Y through its Z quotient by parameter
translation.  Arrows based at a point act on fiber data by powers of 2:
on the discrete fiber copy of Q_D by r |-> 2**n r, and on the dual side by
r |-> 2**(-n) r, so the pairing <2**(-n) r, 2**n p> = <r, p> is preserved.

SO(3) is the one floating-point model: rotations, conjugation transport of
(axis point, integer index) characters, and the orbit invariants.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from ._record import Record
from .exact import format_rational, pow2_scale

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "LINE_BRANCH",
    "PointY",
    "GroupH",
    "ArrowDyadic",
    "CharQ",
    "SElem",
    "CharSO3",
    "FiberMismatch",
    "dyadic_chart",
    "dyadic_act_dual",
    "dyadic_act_S",
    "so3_rotation",
    "so3_conj_residual",
    "so3_transport",
    "so3_spectrum_point",
    "so3_norm_squared",
    "random_rotation",
]

LINE_BRANCH = -1


def dyadic_chart(k: int, s: Fraction | int) -> tuple[Fraction, Fraction, Fraction]:
    """Chart k >= 0 at an off-band parameter (s <= k or s >= k+1), exactly."""
    if k < 0:
        raise ValueError("chart index must be >= 0")
    s = Fraction(s)
    height, coord = _chart_parts(k, s)
    return (pow2_scale(Fraction(1), height), coord, Fraction(0))


def _chart_parts(k: int, s):
    """Chart k at an off-band s as (exponent of the power-of-2 height, coordinate)."""
    if s <= k:
        return -2 * k, s
    if s >= k + 1:
        return -2 * k - 1, s - 1 - 2 * k
    raise ValueError(f"parameter {s} lies in the non-exact band ({k}, {k + 1})")


class PointY(Record):
    """A point of Y in orbit coordinates: chart branch plus integer parameter.

    ``branch`` is a chart index >= 0, or LINE_BRANCH (-1) for the limit line.
    Integer parameters keep every embedding exact.
    """

    __slots__ = ("branch", "param")

    def __init__(self, branch: int, param: int) -> None:
        if branch < LINE_BRANCH:
            raise ValueError("branch must be a chart index >= 0 or LINE_BRANCH")
        super().__init__(branch, param)

    def embed(self) -> tuple[Fraction, Fraction, Fraction]:
        if self.branch == LINE_BRANCH:
            return (Fraction(0), Fraction(self.param), Fraction(0))
        return dyadic_chart(self.branch, self.param)

    def embed_float(self) -> tuple[float, float, float]:
        """``embed()`` rounded to floats, at a cost that does not grow with the chart index."""
        if self.branch == LINE_BRANCH:
            return (0.0, float(self.param), 0.0)
        height, coord = _chart_parts(self.branch, self.param)
        return (math.ldexp(1.0, height), float(coord), 0.0)

    def translate(self, n: int) -> "PointY":
        return PointY(self.branch, self.param + n)

    def to_json(self) -> dict:
        return {
            "branch": self.branch,
            "param": self.param,
            "embed": [format_rational(c) for c in self.embed()],
        }


class GroupH(Record):
    """Element (q, n) of the dyadic affine group, q a dyadic rational."""

    __slots__ = ("q", "n")

    def __init__(self, q: Fraction, n: int) -> None:
        q = Fraction(q)
        d = q.denominator
        if d & (d - 1):
            raise ValueError(f"{q} is not a dyadic rational")
        super().__init__(q, n)

    def to_json(self) -> dict:
        return {"q": format_rational(self.q), "n": self.n}


class ArrowDyadic(Record):
    """A transformation-groupoid arrow (h, y): range y, source h^-1 . y."""

    __slots__ = ("h", "base")

    @property
    def source(self) -> PointY:
        return self.base.translate(-self.h.n)

    def to_json(self) -> dict:
        return {"h": self.h.to_json(), "base": self.base.to_json()}


class CharQ(Record):
    """Fiberwise character of the dyadic rationals: r-hat based at a point.

    r is any rational; the character pairs p |-> exp(2 pi i r p) with the
    discrete fiber group.
    """

    __slots__ = ("r", "base")

    def __init__(self, r: Fraction, base: PointY) -> None:
        super().__init__(Fraction(r), base)

    def to_json(self) -> dict:
        return {"r": format_rational(self.r), "base": self.base.to_json()}


class SElem(Record):
    """Element (r, y) of the bundle of discrete fiber groups: r dyadic at y."""

    __slots__ = ("r", "base")

    def __init__(self, r: Fraction, base: PointY) -> None:
        r = Fraction(r)
        d = r.denominator
        if d & (d - 1):
            raise ValueError(f"{r} is not a dyadic rational")
        super().__init__(r, base)

    def to_json(self) -> dict:
        return {"r": format_rational(self.r), "base": self.base.to_json()}


class FiberMismatch(ValueError):
    """An arrow was applied to fiber data sitting over a different point."""


def dyadic_act_dual(arrow: ArrowDyadic, chi: CharQ) -> CharQ:
    """Arrow at y moves a character at its source to (2**(-n) r)-hat at y."""
    if chi.base != arrow.source:
        raise FiberMismatch(
            f"character based at {chi.base} but arrow source is {arrow.source}"
        )
    return CharQ(pow2_scale(chi.r, -arrow.h.n), arrow.base)


def dyadic_act_S(arrow: ArrowDyadic, s: SElem) -> SElem:
    """Arrow at y moves a fiber group element at its source to (2**n r, y)."""
    if s.base != arrow.source:
        raise FiberMismatch(
            f"fiber element based at {s.base} but arrow source is {arrow.source}"
        )
    return SElem(pow2_scale(s.r, arrow.h.n), arrow.base)


# ---------------------------------------------------------------------------
# SO(3): the floating-point model
#
# numpy is imported inside the functions that build matrices or draw random
# numbers, so that only ``conj-test`` loads it.  The orbit invariant |v| needs
# neither: it is taken in ``math``, with the fused multiply-adds that numpy's
# norm of three floats rounds like (``so3_norm_squared``).


def so3_rotation(axis, theta: float) -> np.ndarray:
    """Rotation matrix about ``axis`` (any nonzero vector) by angle theta."""
    import numpy as np

    w = np.asarray(axis, dtype=float)
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        raise ValueError("rotation axis must be nonzero")
    x, y, z = w / norm
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) * math.cos(theta) + math.sin(theta) * k + (1 - math.cos(theta)) * np.outer(
        w / norm, w / norm
    )


def so3_conj_residual(v_mat: np.ndarray, axis, theta: float, orth_tol: float = 1e-9) -> float:
    """Max-entry residual of V R_w(theta) V^T against R_{Vw}(theta).

    V must be orthogonal within ``orth_tol`` (its transpose is used as the
    inverse).
    """
    import numpy as np

    v_mat = np.asarray(v_mat, dtype=float)
    if np.abs(v_mat @ v_mat.T - np.eye(3)).max() > orth_tol:
        raise ValueError("matrix is not orthogonal within tolerance")
    lhs = v_mat @ so3_rotation(axis, theta) @ v_mat.T
    rhs = so3_rotation(v_mat @ np.asarray(axis, dtype=float), theta)
    return float(np.abs(lhs - rhs).max())


class CharSO3(Record):
    """Character datum (base point v in R^3, integer index k)."""

    __slots__ = ("v", "k")

    @classmethod
    def at(cls, v, k: int) -> "CharSO3":
        return cls((float(v[0]), float(v[1]), float(v[2])), int(k))


def so3_transport(u_mat: np.ndarray, chi: CharSO3) -> CharSO3:
    """Conjugation moves the base point and keeps the integer index."""
    import numpy as np

    return CharSO3.at(np.asarray(u_mat, dtype=float) @ np.asarray(chi.v), chi.k)


def _fma(x: float, y: float, z: float) -> float:
    """x * y + z rounded once, as IEEE 754 fusedMultiplyAdd (``math.fma`` from Python 3.13).

    The exact value is a ratio of integers from ``float.as_integer_ratio``,
    and int true division rounds to nearest even, subnormal results included.
    A zero product adds exactly in floats, which also gives an exact zero sum
    its IEEE sign; a sum past the float range is an infinity, and non-finite
    arguments give what float arithmetic gives.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        return x * y + z
    if not math.isfinite(z):
        return z
    if not (x and y):
        return x * y + z
    a, b = x.as_integer_ratio()
    c, d = y.as_integer_ratio()
    e, f = z.as_integer_ratio()
    numerator = a * c * f + e * b * d
    try:
        return numerator / (b * d * f)
    except OverflowError:
        return math.inf if numerator > 0 else -math.inf


def so3_norm_squared(v) -> float:
    """|v|**2 of a point of R^3 as fma(z, z, fma(y, y, x * x)), each step rounded once.

    Its square root is the |v| that ``so3_spectrum_point`` reports.  On an
    x86-64 Linux host, numpy's norm of three floats rounded the same way on
    300,000 seeded vectors.
    """
    x, y, z = v
    return _fma(z, z, _fma(y, y, x * x))


def so3_spectrum_point(chi: CharSO3) -> tuple[float, int]:
    """Orbit invariants (|v|, k); both are conjugation invariant."""
    return (math.sqrt(so3_norm_squared(chi.v)), chi.k)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation via a normalized Gaussian quaternion."""
    import numpy as np

    q = rng.normal(size=4)
    q = q / np.linalg.norm(q)
    a, b, c, d = q
    return np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
        ]
    )
