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
    "quaternion_rotation",
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
#
# The matrix functions take one case or a stack of n, along a leading axis,
# and one case is the stack of one: each case of a stack gets the same bits
# it gets alone.  That holds because every step is elementwise or per case:
# the norms are per row (``_row_norms``), cos and sin are ``math``'s, one
# angle at a time, and matmul runs each case of a stack as it runs one pair.


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of ``rows``, (n, d), bit for bit ``np.linalg.norm`` of the row alone.

    That norm is the root of the row's dot product with itself, and matmul
    takes a stack of such products in the same dot kernel; ``norm(axis=1)``
    and ``einsum`` add in other orders and differ in the last bit on about
    one row in nine.
    """
    import numpy as np

    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def _apply(mats: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Each matrix of ``mats``, (n, 3, 3), applied to its point of ``points``, (n, 3)."""
    import numpy as np

    return np.matmul(mats, points[:, :, None])[:, :, 0]


def so3_rotation(axis, theta) -> np.ndarray:
    """Rotation matrix about ``axis`` (any nonzero vector) by angle theta.

    Axes of shape (n, 3), with n angles or one for all, give the n
    matrices, shape (n, 3, 3).
    """
    import numpy as np

    w = np.asarray(axis, dtype=float)
    rows = w.reshape(-1, 3)
    norms = _row_norms(rows)
    if not norms.all():
        raise ValueError("rotation axis must be nonzero")
    units = rows / norms[:, None]
    angles = np.broadcast_to(np.asarray(theta, dtype=float), len(rows)).tolist()
    cos = np.array([math.cos(t) for t in angles])[:, None, None]
    sin = np.array([math.sin(t) for t in angles])[:, None, None]
    x, y, z = units.T
    zero = np.zeros(len(rows))
    k = np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=1).reshape(-1, 3, 3)
    rotations = np.eye(3) * cos + sin * k + (1 - cos) * (units[:, :, None] * units[:, None, :])
    return rotations.reshape(w.shape[:-1] + (3, 3))


def so3_conj_residual(v_mat, axis, theta, orth_tol: float = 1e-9):
    """Max-entry residual of V R_w(theta) V^T against R_{Vw}(theta).

    V must be orthogonal within ``orth_tol`` (its transpose is used as the
    inverse).  One V gives a float; a stack of n, shape (n, 3, 3), with n
    axes and n angles (or one for all) gives the array of the n residuals.
    """
    import numpy as np

    v = np.asarray(v_mat, dtype=float)
    mats = v.reshape(-1, 3, 3)
    inverses = mats.transpose(0, 2, 1)
    if (np.abs(mats @ inverses - np.eye(3)).max(axis=(1, 2)) > orth_tol).any():
        raise ValueError("matrix is not orthogonal within tolerance")
    axes = np.asarray(axis, dtype=float).reshape(-1, 3)
    lhs = mats @ so3_rotation(axes, theta) @ inverses
    rhs = so3_rotation(_apply(mats, axes), theta)
    residuals = np.abs(lhs - rhs).max(axis=(1, 2))
    return residuals if v.ndim == 3 else float(residuals[0])


class CharSO3(Record):
    """Character datum (base point v in R^3, integer index k)."""

    __slots__ = ("v", "k")

    @classmethod
    def at(cls, v, k: int) -> "CharSO3":
        return cls((float(v[0]), float(v[1]), float(v[2])), int(k))


def so3_transport(u_mat, chi):
    """Conjugation moves the base point and keeps the integer index.

    A stack of n matrices, shape (n, 3, 3), moves a sequence of n
    characters, each by its own matrix, into a list.
    """
    import numpy as np

    one = isinstance(chi, CharSO3)
    chis = (chi,) if one else chi
    mats = np.asarray(u_mat, dtype=float).reshape(-1, 3, 3)
    points = _apply(mats, np.array([c.v for c in chis], dtype=float)).tolist()
    moved = [CharSO3.at(point, c.k) for point, c in zip(points, chis)]
    return moved[0] if one else moved


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


def quaternion_rotation(q) -> np.ndarray:
    """The rotation of the unit quaternion q / |q|; quaternions of shape (n, 4) give the n matrices."""
    import numpy as np

    q = np.asarray(q, dtype=float)
    rows = q.reshape(-1, 4)
    a, b, c, d = (rows / _row_norms(rows)[:, None]).T
    entries = [
        a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c),
        2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b),
        2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d,
    ]
    return np.stack(entries, axis=1).reshape(q.shape[:-1] + (3, 3))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation via a normalized Gaussian quaternion."""
    return quaternion_rotation(rng.normal(size=4))
