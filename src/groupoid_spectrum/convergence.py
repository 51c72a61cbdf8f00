"""Exact convergence engine for character and fiber-element sequences.

Sequences live in the closed catalog of ``exact``: group exponents and chart
parameters are affine in the index, fiber coordinates are dyadic power
sequences.  Within the catalog every limit is decided exactly, so a "true"
verdict is a certificate, not a numerical observation.

Three checkers mirror the three ways a convergence hypothesis can resolve:

* ``char_seq_converges``: dual-side convergence.  Characters of the discrete
  dyadic rationals vary continuously in their rational parameter, so the
  sequence converges iff the parameter sequence has an exact limit, and the
  limit character is the candidate iff the parameters agree exactly (any
  nonzero rational phase difference is caught by some dyadic test point).

* ``condition_c_check``: the separation condition for a family of arrows
  whose sources carry a convergent character family.  Transport scales the
  parameter sequence by a power of two per step, which stays in the catalog.

* ``condition_c_on_S_check``: the same family read in the bundle of discrete
  fiber groups, where convergence demands eventually constant fiber
  coordinates; the verdict replays the zero-parameter / free-exponent
  dichotomy.

Hypothesis failures (the premises of a check cannot hold) raise
``HypothesisFailure`` rather than returning a verdict.
"""

from __future__ import annotations

from fractions import Fraction

from . import InputError
from ._record import Record
from .exact import (
    DIVERGENT,
    AffineSeq,
    CatalogError,
    DyadicSeq,
    _is_int,
    format_rational,
    parse_rational,
    scale_pow2_affine,
)
from .models import LINE_BRANCH, ArrowDyadic, CharQ, GroupH, PointY, SElem

__all__ = [
    "DEFAULT_TESTS",
    "HypothesisFailure",
    "FamilyFormatError",
    "PointSeqSpec",
    "CharSeqSpec",
    "SElemSeqSpec",
    "DyadicArrowFamily",
    "CharConvergenceReport",
    "ConditionCVerdict",
    "SConditionVerdict",
    "FamilySpec",
    "char_seq_converges",
    "condition_c_check",
    "condition_c_on_S_check",
    "parse_family",
    "run_family_check",
    "run_family_truncated",
]

DEFAULT_TESTS: tuple[Fraction, ...] = (
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2),
)


class HypothesisFailure(Exception):
    """The premises of a condition check fail along the given family."""

    def __init__(self, reason: str, details: dict | None = None):
        self.reason = reason
        self.details = details or {}
        super().__init__(reason)

    def to_json(self) -> dict:
        return {"hypothesis_failure": self.reason, "details": self.details}


class FamilyFormatError(InputError):
    """Malformed family description (JSON schema violation)."""


# ---------------------------------------------------------------------------
# Point sequences


class PointSeqSpec(Record):
    """A sequence of points x_i in orbit coordinates.

    ``branch`` is a fixed chart index (or LINE_BRANCH), or None for the
    index-coupled mode branch_i = i; ``param`` is affine in i.
    """

    __slots__ = ("branch", "param")

    def point_at(self, i: int) -> PointY:
        return PointY(i if self.branch is None else self.branch, self.param(i))

    def limit(self) -> "PointY | object":
        """Exact limit point, or DIVERGENT.

        In index mode the chart heights 2**(-2i) collapse onto the limit
        line, so a limit exists iff the second embedding coordinate
        stabilizes: param constant (arm s <= k) or param growing at exactly
        twice the index (arm s >= k+1).
        """
        a, b = self.param.a, self.param.b
        if self.branch is not None:
            return PointY(self.branch, b) if a == 0 else DIVERGENT
        if a == 0:
            return PointY(LINE_BRANCH, b)
        if a == 2:
            return PointY(LINE_BRANCH, b - 1)
        return DIVERGENT

    def translate(self, n: AffineSeq) -> "PointSeqSpec":
        """Termwise parameter translation by another affine sequence."""
        return PointSeqSpec(self.branch, AffineSeq(self.param.a + n.a, self.param.b + n.b))

    def to_json(self) -> dict:
        return {
            "branch": "i" if self.branch is None else self.branch,
            "param": self.param.to_json(),
        }

    @classmethod
    def from_json(cls, obj) -> "PointSeqSpec":
        if not isinstance(obj, dict) or "branch" not in obj or "param" not in obj:
            raise FamilyFormatError(f"point sequence needs 'branch' and 'param': {obj!r}")
        branch = obj["branch"]
        if branch == "i":
            branch = None
        elif not _is_int(branch) or branch < LINE_BRANCH:
            raise FamilyFormatError(
                f"branch must be a chart index >= 0, {LINE_BRANCH} or 'i': {branch!r}"
            )
        try:
            return cls(branch, AffineSeq.from_json(obj["param"]))
        except CatalogError as exc:
            raise FamilyFormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# Character sequences on the dual side


class CharSeqSpec(Record):
    """Characters chi_i = (r_i)-hat based at x_i."""

    __slots__ = ("base", "parameter")

    def char_at(self, i: int) -> CharQ:
        return CharQ(self.parameter(i), self.base.point_at(i))

    def to_json(self) -> dict:
        return {"base": self.base.to_json(), "r": self.parameter.to_json()}


class CharConvergenceReport(Record):
    """Outcome of an exact dual-convergence check, with per-test phase rows.

    ``parameter_limit`` is the exact limit of the parameters, or DIVERGENT.
    """

    __slots__ = ("converges", "base_limit", "parameter_limit", "candidate", "rows", "reason")

    def to_json(self) -> dict:
        return {
            "converges": self.converges,
            "base_limit": self.base_limit.to_json(),
            "parameter_limit": (
                "divergent"
                if self.parameter_limit is DIVERGENT
                else format_rational(self.parameter_limit)
            ),
            "candidate": self.candidate.to_json(),
            "tests": list(self.rows),
            "reason": self.reason,
        }


def char_seq_converges(
    spec: CharSeqSpec, candidate: CharQ, tests: tuple[Fraction, ...] = DEFAULT_TESTS
) -> CharConvergenceReport:
    """Decide chi_i -> candidate exactly.

    The base sequence must converge to the candidate's base (anything else
    is a usage error, reported as ValueError).  Convergence of the characters
    then reduces to the parameter limit: the sequence converges to the
    candidate iff the exact limit r' equals the candidate parameter r.  The
    per-test rows record the phase difference (r' - r) * q mod 1 at each
    test point q of the fiber group; any nonzero rational difference is
    exposed by a dyadic test, so the rows refute as well as illustrate.
    """
    base_limit = spec.base.limit()
    if base_limit is DIVERGENT:
        raise ValueError("base point sequence diverges; no fiber to converge in")
    if base_limit != candidate.base:
        raise ValueError(
            f"base limit {base_limit} differs from candidate base {candidate.base}"
        )
    r_limit = spec.parameter.limit()
    if r_limit is DIVERGENT:
        return CharConvergenceReport(
            False, base_limit, DIVERGENT, candidate, (),
            "parameter sequence diverges",
        )
    rows = []
    for q in tests:
        phase = ((r_limit - candidate.r) * q) % 1
        rows.append(
            {
                "test": format_rational(q),
                "phase_difference": format_rational(phase),
                "agrees": phase == 0,
            }
        )
    converges = r_limit == candidate.r
    reason = (
        "parameter limit equals candidate parameter"
        if converges
        else f"parameter limit {format_rational(r_limit)} != candidate {format_rational(candidate.r)}"
    )
    return CharConvergenceReport(converges, base_limit, r_limit, candidate, tuple(rows), reason)


# ---------------------------------------------------------------------------
# Arrow families and the separation condition


class DyadicArrowFamily(Record):
    """Arrows gamma_i = ((q_i, n_i), base_i) with affine exponents."""

    __slots__ = ("q", "n", "base")

    def arrow_at(self, i: int) -> ArrowDyadic:
        return ArrowDyadic(GroupH(self.q(i), self.n(i)), self.base.point_at(i))

    def source_spec(self) -> PointSeqSpec:
        return self.base.translate(self.n.negate())

    def to_json(self) -> dict:
        return {"q": self.q.to_json(), "n": self.n.to_json(), "base": self.base.to_json()}


class ConditionCVerdict(Record):
    """Verdict of the separation condition along one family."""

    __slots__ = ("holds", "same_fiber", "chi", "omega", "chi_report", "omega_report", "note")

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "same_fiber": self.same_fiber,
            "chi": self.chi.to_json(),
            "omega": self.omega.to_json(),
            "convergence": {
                "chi": self.chi_report.to_json(),
                "omega": self.omega_report.to_json(),
            },
            "note": self.note,
        }


def condition_c_check(
    family: DyadicArrowFamily,
    chi_spec: CharSeqSpec,
    chi: CharQ,
    omega: CharQ,
    tests: tuple[Fraction, ...] = DEFAULT_TESTS,
) -> ConditionCVerdict:
    """Check: chi_i -> chi and gamma_i . chi_i -> omega in one fiber force chi == omega.

    The transported parameters are 2**(-n_i) r_i, still in the catalog.  If
    either claimed convergence fails (or the character family is not based
    at the arrow sources), the premises are unsatisfiable and a
    HypothesisFailure is raised instead of a verdict.
    """
    if chi_spec.base != family.source_spec():
        raise HypothesisFailure(
            "character family is not based at the arrow sources",
            {
                "arrow_sources": family.source_spec().to_json(),
                "character_bases": chi_spec.base.to_json(),
            },
        )
    transported = CharSeqSpec(
        family.base, scale_pow2_affine(chi_spec.parameter, -family.n.a, -family.n.b)
    )
    chi_report = _require_convergence(chi_spec, chi, tests, "chi_i -> chi")
    omega_report = _require_convergence(transported, omega, tests, "gamma_i . chi_i -> omega")
    same_fiber = chi.base == omega.base
    if not same_fiber:
        return ConditionCVerdict(
            True, False, chi, omega, chi_report, omega_report,
            "vacuous: limits lie in different fibers",
        )
    holds = chi.r == omega.r
    note = "limits agree" if holds else "limits differ within one fiber"
    return ConditionCVerdict(holds, True, chi, omega, chi_report, omega_report, note)


def _require_convergence(
    spec: CharSeqSpec, candidate: CharQ, tests: tuple[Fraction, ...], label: str
) -> CharConvergenceReport:
    try:
        report = char_seq_converges(spec, candidate, tests)
    except ValueError as exc:
        raise HypothesisFailure(f"{label} fails: {exc}") from None
    if not report.converges:
        raise HypothesisFailure(f"{label} fails: {report.reason}", report.to_json())
    return report


# ---------------------------------------------------------------------------
# The same family in the bundle of discrete fiber groups


class SElemSeqSpec(Record):
    """Fiber group elements s_i = (r_i, x_i)."""

    __slots__ = ("base", "parameter")

    def to_json(self) -> dict:
        return {"base": self.base.to_json(), "r": self.parameter.to_json()}


class SConditionVerdict(Record):
    __slots__ = ("holds", "branch", "s", "t", "details")

    def __init__(
        self, holds: bool, branch: str, s: SElem, t: SElem, details: dict | None = None
    ) -> None:
        # branch: "zero-parameter" | "free-exponent" | "vacuous-different-fibers"
        super().__init__(holds, branch, s, t, {} if details is None else details)

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "branch": self.branch,
            "s": self.s.to_json(),
            "t": self.t.to_json(),
            "details": self.details,
        }


def _s_limit(spec: SElemSeqSpec, candidate: SElem, label: str) -> None:
    """Convergence in the bundle: eventually constant fiber coordinate."""
    if not spec.parameter.is_eventually_constant():
        raise HypothesisFailure(
            f"{label} has no limit: fiber coordinates {spec.parameter.to_json()} "
            "are never eventually constant in the discrete fiber group",
            {"parameter": spec.parameter.to_json()},
        )
    value = spec.parameter.limit()
    if value != candidate.r:
        raise HypothesisFailure(
            f"{label} fails: eventual fiber coordinate {format_rational(value)} "
            f"!= {format_rational(candidate.r)}"
        )
    base_limit = spec.base.limit()
    if base_limit is DIVERGENT or base_limit != candidate.base:
        raise HypothesisFailure(f"{label} fails: base points do not converge to the claimed base")


def condition_c_on_S_check(
    family: DyadicArrowFamily, s_spec: SElemSeqSpec, s: SElem, t: SElem
) -> SConditionVerdict:
    """The separation condition read in S, where fibers are discrete.

    s_i -> s demands an eventually constant fiber coordinate; so does
    gamma_i . s_i -> t, whose coordinates are 2**(n_i) r_i.  When both limits
    exist in one fiber the dichotomy resolves: either the coordinate is zero
    on both sides, or a nonzero coordinate forces the exponent sequence to
    stabilize at 0 (the integer translation action is free), so s == t either
    way.
    """
    if s_spec.base != family.source_spec():
        raise HypothesisFailure(
            "fiber element family is not based at the arrow sources",
            {
                "arrow_sources": family.source_spec().to_json(),
                "element_bases": s_spec.base.to_json(),
            },
        )
    _s_limit(s_spec, s, "s_i -> s")
    transported = SElemSeqSpec(
        family.base, scale_pow2_affine(s_spec.parameter, family.n.a, family.n.b)
    )
    _s_limit(transported, t, "gamma_i . s_i -> t")
    if s.base != t.base:
        return SConditionVerdict(
            True, "vacuous-different-fibers", s, t,
            {"note": "limits lie in different fibers"},
        )
    if s.r == 0 or t.r == 0:
        return SConditionVerdict(
            s == t, "zero-parameter", s, t,
            {"note": "a zero fiber coordinate propagates through every power of 2"},
        )
    exponent = family.n.limit()
    return SConditionVerdict(
        s == t, "free-exponent", s, t,
        {
            "note": "free translation action forces the exponent to stabilize at 0",
            "eventual_exponent": exponent if exponent is not DIVERGENT else "divergent",
        },
    )


# ---------------------------------------------------------------------------
# Family files


class FamilySpec(Record):
    """Parsed family description: arrows plus a fiber-data family and limits.

    ``space`` is "dual" (characters, ``CharSeqSpec`` and ``CharQ`` limits) or
    "S" (fiber group elements, ``SElemSeqSpec`` and ``SElem`` limits).
    """

    __slots__ = ("space", "family", "seq", "limit_chi", "limit_omega", "tests")

    def to_json(self) -> dict:
        out = {
            "model": "dyadic",
            "space": self.space,
            "gamma": self.family.to_json(),
        }
        if self.space == "dual":
            out["chi"] = self.seq.to_json()
            out["limits"] = {"chi": self.limit_chi.to_json(), "omega": self.limit_omega.to_json()}
            out["tests"] = [format_rational(q) for q in self.tests]
        else:
            out["s"] = self.seq.to_json()
            out["limits"] = {"s": self.limit_chi.to_json(), "t": self.limit_omega.to_json()}
        return out


def _parse_point(obj) -> PointY:
    if not isinstance(obj, dict) or "branch" not in obj or "param" not in obj:
        raise FamilyFormatError(f"point needs 'branch' and 'param': {obj!r}")
    if not _is_int(obj["branch"]) or not _is_int(obj["param"]):
        raise FamilyFormatError(f"point branch and param must be integers: {obj!r}")
    return PointY(obj["branch"], obj["param"])


def parse_family(obj: dict) -> FamilySpec:
    """Parse the family JSON schema; raises FamilyFormatError on any defect."""
    if not isinstance(obj, dict):
        raise FamilyFormatError("family description must be a JSON object")
    if obj.get("model") != "dyadic":
        raise FamilyFormatError(f"unsupported model: {obj.get('model')!r} (expected 'dyadic')")
    space = obj.get("space", "dual")
    if space not in ("dual", "S"):
        raise FamilyFormatError(f"space must be 'dual' or 'S', got {space!r}")
    gamma = obj.get("gamma")
    if not isinstance(gamma, dict) or not {"q", "n", "base"} <= set(gamma):
        raise FamilyFormatError("gamma needs 'q', 'n' and 'base'")
    try:
        family = DyadicArrowFamily(
            DyadicSeq.from_json(gamma["q"]),
            AffineSeq.from_json(gamma["n"]),
            PointSeqSpec.from_json(gamma["base"]),
        )
    except CatalogError as exc:
        raise FamilyFormatError(str(exc)) from None
    data_key = "chi" if space == "dual" else "s"
    data = obj.get(data_key)
    if not isinstance(data, dict) or "r" not in data:
        raise FamilyFormatError(f"{data_key!r} needs a parameter sequence 'r'")
    try:
        parameter = DyadicSeq.from_json(data["r"])
    except CatalogError as exc:
        raise FamilyFormatError(str(exc)) from None
    base = (
        PointSeqSpec.from_json(data["base"]) if "base" in data else family.source_spec()
    )
    limits = obj.get("limits")
    lim_keys = ("chi", "omega") if space == "dual" else ("s", "t")
    if not isinstance(limits, dict) or not set(lim_keys) <= set(limits):
        raise FamilyFormatError(f"limits needs {lim_keys[0]!r} and {lim_keys[1]!r}")

    def parse_limit(entry) -> tuple[Fraction, PointY]:
        if not isinstance(entry, dict) or "r" not in entry or "base" not in entry:
            raise FamilyFormatError(f"limit needs 'r' and 'base': {entry!r}")
        try:
            return parse_rational(entry["r"]), _parse_point(entry["base"])
        except ValueError as exc:
            raise FamilyFormatError(f"bad limit value: {exc}") from None

    r1, b1 = parse_limit(limits[lim_keys[0]])
    r2, b2 = parse_limit(limits[lim_keys[1]])
    tests = DEFAULT_TESTS
    if "tests" in obj:
        if not isinstance(obj["tests"], list) or not obj["tests"]:
            raise FamilyFormatError("tests must be a nonempty list of rationals")
        try:
            tests = tuple(parse_rational(t) for t in obj["tests"])
        except ValueError as exc:
            raise FamilyFormatError(f"bad test value: {exc}") from None
    if space == "dual":
        return FamilySpec(
            space, family, CharSeqSpec(base, parameter),
            CharQ(r1, b1), CharQ(r2, b2), tests,
        )
    try:
        lim_s, lim_t = SElem(r1, b1), SElem(r2, b2)
    except ValueError as exc:
        raise FamilyFormatError(str(exc)) from None
    return FamilySpec(space, family, SElemSeqSpec(base, parameter), lim_s, lim_t, tests)


def run_family_check(spec: FamilySpec) -> dict:
    """Run the exact checker for a parsed family; always returns a report.

    Hypothesis failures come back as a report, not an exception: deciding
    that the premises cannot hold is itself a completed analysis.
    """
    try:
        if spec.space == "dual":
            verdict = condition_c_check(
                spec.family, spec.seq, spec.limit_chi, spec.limit_omega, spec.tests
            )
        else:
            verdict = condition_c_on_S_check(
                spec.family, spec.seq, spec.limit_chi, spec.limit_omega
            )
    except HypothesisFailure as failure:
        return {"certifying": True, "outcome": "hypothesis-failure", **failure.to_json()}
    return {"certifying": True, "outcome": "verdict", "verdict": verdict.to_json()}


def run_family_truncated(spec: FamilySpec, truncate: int, tol: float) -> dict:
    """Non-certifying numeric probe: compare the family at one index to the limits.

    Useful as a sanity view only; the exact checker is authoritative.
    """
    if truncate < 0:
        raise FamilyFormatError("truncation index must be >= 0")
    i = truncate

    def embed_dist(p: PointY, q: PointY) -> float:
        return max(abs(a - b) for a, b in zip(p.embed_float(), q.embed_float()))

    try:
        param = spec.seq.parameter.float_at(i)
        base = spec.seq.base.point_at(i)
        trans_param = spec.seq.parameter.float_at(
            i, spec.family.n(i) * (1 if spec.space == "S" else -1)
        )
        trans_base = spec.family.base.point_at(i)
        row = {
            "index": i,
            "parameter": param,
            "parameter_residual": abs(param - float(spec.limit_chi.r)),
            "base_residual": embed_dist(base, spec.limit_chi.base),
            "transported_parameter": trans_param,
            "transported_residual": abs(trans_param - float(spec.limit_omega.r)),
            "transported_base_residual": embed_dist(trans_base, spec.limit_omega.base),
        }
    except OverflowError:
        raise FamilyFormatError(
            f"truncation index {i} is beyond the float range of the numeric probe"
        ) from None
    within = all(
        row[k] <= tol
        for k in (
            "parameter_residual",
            "base_residual",
            "transported_residual",
            "transported_base_residual",
        )
    )
    return {
        "certifying": False,
        "outcome": "numeric-probe",
        "tolerance": tol,
        "row": row,
        "within_tolerance": within,
    }
