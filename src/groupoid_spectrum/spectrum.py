"""Hausdorff spectrum decision for finite graph groupoid algebras.

The decision runs two graph conditions:

* Condition A: no simple cycle has an entry (an edge off the cycle whose
  range lies on it).  Failure witnesses are (cycle, entry) pairs, each
  augmented with a stabilizer-discontinuity record: walking into the cycle
  through the entry approximates the cycle's periodic path by paths of head
  period 0, so the period subgroups converge to {0} instead of nZ.  The
  record depends only on the cycle length n, so the entries are carried
  grouped per cycle, and ``ConditionAReport`` holds nothing but the cycles
  and those runs, as ranks of edges by id; the verdict is whether there
  are any.

* Condition B: for every pair of distinct cycles, some vertex u reachable
  from the first and v reachable from the second have no common ancestor
  (no w reaching both).  It holds whenever condition A does, since then
  the cycles are the source components of the condensation and each
  cycle's own vertices have only that cycle as an ancestor.  Certificates
  are the least (u, v) per pair, found by two scans: u is the first vertex
  reached from the first cycle and not from the second, v the first vertex
  reached from the second cycle and from no cycle reaching u.  Skipped when
  condition A fails.

Both conditions read one O(V + E) pass, ``DiGraph.pointer_cycles``: it
decides condition A from the in-degrees on cycles, and its Kahn peel
computes, for each vertex, condition B's mask of the cycles reaching it.

When both pass, the remaining separation condition for convergent character
sequences holds automatically: an arrow between two characters in the same
fiber conjugates one stabilizer character onto the other, and the limit
fiber's stabilizer is a single group, so the two limits agree.

The Fell limits of period subgroups of Z (``PeriodFamily``, ``FellLimit``,
``fell_subgroup_limit``) live here, with the stabilizer records that read
them.  They need only integers, so a graph command loads neither ``exact``
nor the ``fractions`` and ``decimal`` modules behind it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from ._record import Record
from .digraph import (
    CycleRep,
    DiGraph,
    Edge,
    _check_composable,
    entry_free_cycles,
    require_validated,
)

__all__ = [
    "ConditionAReport",
    "ConditionBReport",
    "SpectrumVerdict",
    "EventualPath",
    "FellLimit",
    "PeriodFamily",
    "ConditionARequired",
    "check_condition_a",
    "check_condition_b",
    "decide_hausdorff_spectrum",
    "fell_subgroup_limit",
    "orbits",
    "shift_equivalent",
    "stabilizer_of_path",
    "stabilizer_record",
    "CONDITION_C_NOTE",
    "ORBIT_REFUSAL",
]

CONDITION_C_NOTE = "automatic (stabilizer conjugation argument)"
ORBIT_REFUSAL = "orbit space is cycle-indexed only when no cycle has an entry"


class ConditionARequired(RuntimeError):
    """Raised by operations that only make sense on entry-free graphs."""


# ---------------------------------------------------------------------------
# Fell limits of period subgroups of Z


class PeriodFamily(Record):
    """A family of periods p_i >= 0 (p = 0 denotes the trivial subgroup).

    ``transient`` lists finitely many initial values; ``tail`` is either an
    affine sequence (``exact.AffineSeq``) or a repeating pattern, a tuple.
    """

    __slots__ = ("tail", "transient")

    def __init__(self, tail, transient: tuple[int, ...] = ()) -> None:
        values = list(transient)
        if isinstance(tail, tuple):
            if not tail:
                raise ValueError("repeating tail pattern must be nonempty")
            values += list(tail)
            if any(p < 0 for p in values):
                raise ValueError("periods must be >= 0")
        else:
            if any(p < 0 for p in values):
                raise ValueError("periods must be >= 0")
            if tail.a < 0 or tail(len(transient)) < 0:
                raise ValueError("affine tail must stay >= 0")
        super().__init__(tail, transient)

    def period_at(self, i: int) -> int:
        if i < len(self.transient):
            return self.transient[i]
        j = i - len(self.transient)
        if isinstance(self.tail, tuple):
            return self.tail[j % len(self.tail)]
        return self.tail(i)


class FellLimit(Record):
    """Limit of the subgroups p_i Z in the Fell topology: ``period`` p of pZ, or None when not convergent."""

    __slots__ = ("convergent", "period")

    def label(self) -> str:
        if not self.convergent:
            return "not convergent"
        return "{0}" if self.period == 0 else f"{self.period}Z"


def fell_subgroup_limit(family: PeriodFamily) -> FellLimit:
    """Fell limit of p_i Z in the subgroup space of Z.

    Subgroup sequences of a discrete group converge iff membership of each
    element stabilizes: an eventually constant period p gives pZ, periods
    growing without bound give the trivial subgroup, and a non-constant
    repeating pattern oscillates (membership of the smallest nonzero period
    never stabilizes), so it does not converge.
    """
    tail = family.tail
    if not isinstance(tail, tuple):  # an affine tail i |-> a*i + b, with a >= 0
        if tail.a > 0:
            return FellLimit(True, 0)
        return FellLimit(True, tail.b)
    if all(p == tail[0] for p in tail):
        return FellLimit(True, tail[0])
    return FellLimit(False, None)


# ---------------------------------------------------------------------------
# Condition A


# the Fell limit of the approximating paths' subgroups, constant period 0, the same for every entry
_APPROX_LIMIT = fell_subgroup_limit(PeriodFamily((0,)))


def stabilizer_record(period: int) -> dict:
    """Why an entry into a cycle of length ``period`` breaks continuity of the period subgroups.

    The paths x_i that follow the cycle i times before leaving through the
    entry converge to the cycle's periodic path, but each has head period 0,
    so their subgroups converge to {0}, while the limit has period
    ``period``.  The record depends on nothing else; each call returns a
    new dict.
    """
    return {
        "approx_periods": "constant 0",
        "approx_fell_limit": _APPROX_LIMIT.label(),
        "period_at_limit": FellLimit(True, period).label(),
        "continuous": _APPROX_LIMIT.period == period,
    }


class ConditionAReport(Record):
    """Cycles and entry runs as ranks of ``graph``'s edges, and each rank's edge (``entry_free_cycles``).

    ``order`` ranks the cycle edges and their entries alone.  Condition A
    holds iff there are no runs.  Every entry's certificate is the
    stabilizer record of its cycle's length (``stabilizer_record``).
    ``cycle_edges`` and ``run_edges`` are the same data as edge indices, and
    ``cycles``, ``runs`` and ``entries`` as ``CycleRep`` and ``Edge``
    objects: read-only views, built on first access and cached; neither the
    decision nor the CLI reads them, and ``to_json`` is built from them.
    """

    # __dict__ holds the views
    __slots__ = ("graph", "order", "cycle_ranks", "run_ranks", "__dict__")

    @property
    def passed(self) -> bool:
        return not self.run_ranks

    @cached_property
    def cycle_edges(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(map(self.order.__getitem__, c)) for c in self.cycle_ranks)

    @cached_property
    def run_edges(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        return tuple((k, tuple(map(self.order.__getitem__, run))) for k, run in self.run_ranks)

    @cached_property
    def cycles(self) -> tuple[CycleRep, ...]:
        """The cycles as ``CycleRep`` objects."""
        at = self.graph.edges.at
        return tuple(CycleRep._checked(tuple(at(c))) for c in self.cycle_edges)

    @cached_property
    def runs(self) -> tuple[tuple[CycleRep, tuple[Edge, ...]], ...]:
        """Each cycle with entries and its entry edges, in order."""
        cycles, at = self.cycles, self.graph.edges.at
        return tuple((cycles[k], tuple(at(run))) for k, run in self.run_edges)

    @cached_property
    def entries(self) -> tuple[tuple[CycleRep, Edge], ...]:
        """Every (cycle, entry) pair, ordered by cycle."""
        return tuple((c, e) for c, run in self.runs for e in run)

    def ranked_ids(self) -> list[str]:
        """The edge id of each rank: ``order`` mapped to ids."""
        return list(map(self.graph.edge_ids.__getitem__, self.order))

    def cycle_ids(self) -> list[tuple[str, ...]]:
        """Each cycle's edge ids, in the order of ``cycle_ranks``."""
        ids = self.ranked_ids().__getitem__
        return [tuple(map(ids, c)) for c in self.cycle_ranks]

    def to_json(self) -> dict:
        """The report as ``json.dumps`` takes it: every item built from its own (cycle, entry) pair.

        The CLI writes the same bytes from the ranks (``cli.cmd_graph_analyze``).
        """
        out = {
            "pass": self.passed,
            "cycles": [list(c.edge_ids()) for c in self.cycles],
            "entries": [{"cycle": list(c.edge_ids()), "entry": e.id} for c, e in self.entries],
        }
        if not self.passed:
            out["stabilizer_discontinuity"] = [
                {"cycle": list(c.edge_ids()), "entry": e.id, **stabilizer_record(len(c))}
                for c, e in self.entries
            ]
        return out


def check_condition_a(g: DiGraph) -> ConditionAReport:
    """Cycles and entry runs (see ``entry_free_cycles``)."""
    return ConditionAReport(g, *entry_free_cycles(g))


# ---------------------------------------------------------------------------
# Condition B


class ConditionBReport(Record):
    """Condition B's verdict and certificates.

    ``status`` is "pass" or "skipped", and ``condition_a`` the report B was
    decided from.  When B passed, ``certificates`` holds one (u, v) pair of
    vertex ids per pair (a, b), a < b, of its cycles, in
    ``combinations(cycles, 2)`` order; the CLI renders them so.
    """

    __slots__ = ("status", "condition_a", "certificates")

    @property
    def cycles(self) -> tuple[CycleRep, ...]:
        """Condition A's cycles, as ``CycleRep`` objects."""
        return self.condition_a.cycles

    def to_json(self) -> dict:
        return {
            "pass": True if self.status == "pass" else "skipped",
            "certificates": [
                {"pair": [list(c), list(d)], "u": u, "v": v}
                for (c, d), (u, v) in zip(
                    combinations(self.condition_a.cycle_ids(), 2), self.certificates
                )
            ],
        }


def check_condition_b(g: DiGraph, report_a: ConditionAReport) -> ConditionBReport:
    """The least separating vertex pair of every pair of distinct cycles.

    Skipped unless condition A holds.  ``g`` must be validated, as
    ``decide_hausdorff_spectrum`` ensures: then every ancestor chain starts
    on a cycle, and under A nothing enters a cycle, so u and v are separated
    exactly when no cycle reaches both: their masks of reaching cycles, which
    ``g.pointer_cycles`` computed while deciding A, are disjoint.  A cycle's
    own vertices carry only its own bit, so every pair of cycles is
    separated.  B reads the masks alone and never walks the graph.

    It also gives the least pair of cycles a < b by two scans of the
    candidates in name order, the least vertex of each distinct mask: u is
    the first candidate of a whose mask lacks b's bit, since every vertex
    reached from b carries that bit; v is the first candidate of b whose mask
    is disjoint from u's.  b's own vertices carry only b's bit, so both exist.
    """
    if not report_a.passed:
        return ConditionBReport("skipped", report_a, ())
    cycles, order = report_a.cycle_ranks, report_a.order  # sorted by CycleRep.sort_key
    masks = g.pointer_cycles[1]  # bit i of a mask is the i-th pointer cycle
    # each cycle's bit, in the order of cycles: the mask of its vertices, which carry it alone
    bits = [masks[g.dst[order[c[0]]]].bit_length() - 1 for c in cycles]
    # the least vertex, in name order, of each distinct mask; the candidates
    # from a cycle's reach set are the masks holding its bit
    least: dict[int, str] = {}
    for name, mask in zip(g.vertices, masks):
        if least.setdefault(mask, name) > name:
            least[mask] = name
    by_bit: list[list[tuple[int, str]]] = [[] for _ in cycles]
    for name, mask in sorted(zip(least.values(), least)):
        candidate = (mask, name)
        rest = mask
        while rest:
            by_bit[(rest & -rest).bit_length() - 1].append(candidate)
            rest &= rest - 1
    firsts = [by_bit[bit] for bit in bits]

    certificates = []
    for a, first_a in enumerate(firsts):
        for b, first_b in enumerate(firsts[a + 1 :], a + 1):
            (mask_u, u), (mask_v, v) = first_a[0], first_b[0]
            if mask_u & mask_v:  # the least vertices share a reaching cycle
                mask_u, u = next(c for c in first_a if not c[0] >> bits[b] & 1)
                v = next(name for mask, name in first_b if not mask & mask_u)
            certificates.append((u, v))
    return ConditionBReport("pass", report_a, tuple(certificates))


# ---------------------------------------------------------------------------
# Combined verdict


class SpectrumVerdict(Record):
    """Conditions A and B of one graph; the graph is Hausdorff iff A passed."""

    __slots__ = ("condition_a", "condition_b")

    @property
    def hausdorff(self) -> bool:
        """Condition A decides: B follows from it, and C holds always."""
        return self.condition_a.passed

    def to_json(self) -> dict:
        return {
            "validated": True,
            "condition_a": self.condition_a.to_json(),
            "condition_b": self.condition_b.to_json(),
            "condition_c": CONDITION_C_NOTE,
            "hausdorff": self.hausdorff,
        }


def decide_hausdorff_spectrum(g: DiGraph) -> SpectrumVerdict:
    """Full decision; raises InvalidGraphError when the graph fails validation."""
    require_validated(g)
    report_a = check_condition_a(g)
    return SpectrumVerdict(report_a, check_condition_b(g, report_a))


def orbits(g: DiGraph) -> tuple[CycleRep, ...]:
    """Orbit representatives of the infinite-path space, one per cycle.

    Only meaningful on entry-free graphs, where every infinite path falls
    into a cycle and two paths are shift equivalent iff they share it.
    """
    require_validated(g)
    report = check_condition_a(g)
    if not report.passed:
        raise ConditionARequired(ORBIT_REFUSAL)
    return report.cycles


# ---------------------------------------------------------------------------
# Eventually periodic paths


class EventualPath(Record):
    """Infinite path prefix . cycle^inf, edges head-first.

    ``prefix`` may be empty; when nonempty its last edge must compose with
    the first cycle edge.  ``cycle`` is the rotation actually used, kept as
    typed (validated) but possibly non-canonical edge order.
    """

    __slots__ = ("prefix", "cycle")

    def __init__(self, prefix: tuple[Edge, ...], cycle: tuple[Edge, ...]) -> None:
        CycleRep(cycle)  # validates simplicity and cyclic composability
        if prefix:
            _check_composable(prefix)
            if prefix[-1].src != cycle[0].rng:
                raise ValueError(
                    f"prefix ending at {prefix[-1].src!r} does not meet "
                    f"cycle starting at {cycle[0].rng!r}"
                )
        super().__init__(prefix, cycle)

    def cycle_rep(self) -> CycleRep:
        return CycleRep(self.cycle)

    def minimize(self) -> "EventualPath":
        """Unique shortest presentation of the same infinite path.

        A prefix edge equal to the closing cycle edge is absorbed by
        rotating the cycle one step back.
        """
        prefix = list(self.prefix)
        cycle = list(self.cycle)
        while prefix and prefix[-1].id == cycle[-1].id:
            prefix.pop()
            cycle = [cycle[-1]] + cycle[:-1]
        return EventualPath(tuple(prefix), tuple(cycle))

    def to_json(self) -> dict:
        return {
            "prefix": [e.id for e in self.prefix],
            "cycle": [e.id for e in self.cycle],
        }


def shift_equivalent(x: EventualPath, y: EventualPath) -> bool:
    """True iff some shifts of x and y denote the same path.

    Shifting far enough lands both on rotations of their cycles, so the
    paths are equivalent iff they run the same cycle.
    """
    return x.cycle_rep() == y.cycle_rep()


def stabilizer_of_path(x: EventualPath) -> int:
    """Period n of x under the shift: least n > 0 with shift^n(x) == x, else 0.

    Nonzero exactly when the minimal presentation has empty prefix; then the
    period is the cycle length.
    """
    minimal = x.minimize()
    return 0 if minimal.prefix else len(minimal.cycle)
