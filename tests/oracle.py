"""Independent brute-force re-derivations of the spectrum decision.

Everything here is deliberately naive pure Python sharing no code with the
kernels: cycles by walk extension over edge lists, reachability by BFS, and
condition B quantified over explicitly enumerated eventually periodic paths
instead of cycle representatives.  ``oracle_suite`` runs both routes and
reports agreement; it is the verification harness, not the fast path.
"""

from __future__ import annotations

from collections.abc import Sequence

from groupoid_spectrum._record import Record
from groupoid_spectrum.digraph import CycleRep, DiGraph, Edge
from groupoid_spectrum.spectrum import EventualPath, decide_hausdorff_spectrum

__all__ = [
    "OracleReport",
    "naive_simple_cycles",
    "naive_entries",
    "naive_reach_sets",
    "edge_at",
    "vertices_on",
    "enumerate_eventual_paths",
    "naive_shift_classes",
    "oracle_suite",
]


def naive_simple_cycles(g: DiGraph) -> set[tuple[str, ...]]:
    """All simple cycles as canonical CycleRep edge-id tuples, by walk extension.

    Walks grow in traversal order and close on their start vertex; each
    cycle is found once per vertex on it and deduplicated by canonical form.
    """
    out_edges: dict[str, list[Edge]] = {v: [] for v in g.vertices}
    for e in g.edges:
        out_edges[e.src].append(e)
    found: set[tuple[str, ...]] = set()

    def extend(walk: list[Edge], visited: list[str]) -> None:
        head = walk[-1].rng if walk else visited[0]
        for e in out_edges[head]:
            if e.rng == visited[0]:
                found.add(CycleRep(tuple(reversed(walk + [e]))).edge_ids())
            elif e.rng not in visited:
                extend(walk + [e], visited + [e.rng])

    for v in g.vertices:
        extend([], [v])
    return found


def naive_entries(
    g: DiGraph, cycles: set[tuple[str, ...]] | None = None
) -> set[tuple[tuple[str, ...], str]]:
    """(cycle, entry edge id) pairs straight from the definition.

    ``cycles`` are ``naive_simple_cycles(g)``, found here unless given.
    """
    result = set()
    for cycle_ids in naive_simple_cycles(g) if cycles is None else cycles:
        cycle_edges = [g.edge_by_id[i] for i in cycle_ids]
        verts = {e.rng for e in cycle_edges}
        for e in g.edges:
            if e.id not in cycle_ids and e.rng in verts:
                result.add((cycle_ids, e.id))
    return result


def naive_reach_sets(g: DiGraph) -> dict[str, frozenset[str]]:
    """Reflexive reachability by BFS from each vertex."""
    out_edges: dict[str, list[str]] = {v: [] for v in g.vertices}
    for e in g.edges:
        out_edges[e.src].append(e.rng)
    sets = {}
    for v in g.vertices:
        seen = {v}
        frontier = [v]
        while frontier:
            nxt = []
            for u in frontier:
                for w in out_edges[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        sets[v] = frozenset(seen)
    return sets


def edge_at(x: EventualPath, i: int) -> Edge:
    """The i-th edge of the infinite path x, head first."""
    if i < len(x.prefix):
        return x.prefix[i]
    return x.cycle[(i - len(x.prefix)) % len(x.cycle)]


def vertices_on(x: EventualPath) -> frozenset[str]:
    """Every vertex the infinite path x visits."""
    return frozenset(e.rng for e in x.cycle).union(*((e.src, e.rng) for e in x.prefix))


def enumerate_eventual_paths(
    g: DiGraph, max_prefix: int, cycles: set[tuple[str, ...]] | None = None
) -> list[EventualPath]:
    """Every eventually periodic path with minimal prefix length <= max_prefix.

    Prefixes grow on the head side: a path into cycle rotation R with head h
    extends along each edge with src == h.  Presentations are minimized and
    deduplicated, so the result lists each infinite path once.  ``cycles``
    are ``naive_simple_cycles(g)``, found here unless given.
    """
    edges_from: dict[str, list[Edge]] = {v: [] for v in g.vertices}
    for e in g.edges:
        edges_from[e.src].append(e)

    paths: dict[tuple, EventualPath] = {}

    def key(p: EventualPath) -> tuple:
        return (tuple(e.id for e in p.prefix), tuple(e.id for e in p.cycle))

    for cycle_ids in sorted(naive_simple_cycles(g) if cycles is None else cycles):
        cycle = tuple(g.edge_by_id[i] for i in cycle_ids)
        for rot in range(len(cycle)):
            rotation = cycle[rot:] + cycle[:rot]
            level: list[tuple[Edge, ...]] = [()]
            for depth in range(max_prefix + 1):
                for prefix in level:
                    p = EventualPath(prefix, rotation).minimize()
                    if len(p.prefix) <= max_prefix:
                        paths.setdefault(key(p), p)
                if depth == max_prefix:
                    break
                nxt = []
                for prefix in level:
                    head = prefix[0].rng if prefix else rotation[0].rng
                    for e in edges_from[head]:
                        nxt.append((e,) + prefix)
                level = nxt
    return [paths[k] for k in sorted(paths)]


def _tails_agree(x: EventualPath, y: EventualPath, a: int, b: int, window: int) -> bool:
    return all(edge_at(x, a + i) == edge_at(y, b + i) for i in range(window))


def naive_shift_classes(paths: list[EventualPath]) -> list[list[EventualPath]]:
    """Group paths by shift equivalence, testing tail agreement directly.

    Two eventually periodic paths are equivalent iff some pair of shifts
    makes them agree edgewise; shifts up to prefix length + period and a
    comparison window of the combined period suffice.
    """
    classes: list[list[EventualPath]] = []
    for p in paths:
        placed = False
        for cls in classes:
            q = cls[0]
            bound_p = len(p.prefix) + len(p.cycle)
            bound_q = len(q.prefix) + len(q.cycle)
            window = len(p.cycle) * len(q.cycle) + max(len(p.prefix), len(q.prefix))
            if any(
                _tails_agree(p, q, a, b, window)
                for a in range(bound_p + 1)
                for b in range(bound_q + 1)
            ):
                cls.append(p)
                placed = True
                break
        if not placed:
            classes.append([p])
    return classes


class OracleReport(Record):
    """Agreement record between the fast route and the naive route.

    ``orbit_count_agrees`` and ``condition_b_agrees`` are None when condition
    A fails, which leaves them undefined.
    """

    __slots__ = (
        "condition_a_agrees",
        "entries_agree",
        "orbit_count_agrees",
        "condition_b_agrees",
        "details",
    )

    @property
    def all_agree(self) -> bool:
        return (
            self.condition_a_agrees
            and self.entries_agree
            and self.orbit_count_agrees is not False
            and self.condition_b_agrees is not False
        )


def oracle_suite(g: DiGraph, budgets: Sequence[int]) -> list[OracleReport]:
    """Cross-validate the spectrum decision against brute force on one graph, once per budget.

    Compares cycle sets and entry sets, then (when condition A holds) the
    orbit count against explicitly enumerated paths, with prefixes up to
    each budget in ``budgets``, modulo naive shift equivalence, and
    condition B quantified over all enumerated pairs of non-equivalent
    paths against the cycle-representative decision.  Returns one report
    per budget, in order.  The decision, the naive cycles and entries and
    the reach and ancestor tables do not depend on the budget, so they are
    computed once, and the path enumeration of every budget reuses the
    naive cycles.
    """
    verdict = decide_hausdorff_spectrum(g)
    report_a = verdict.condition_a

    fast_cycles = {c.edge_ids() for c in report_a.cycles}
    slow_cycles = naive_simple_cycles(g)
    fast_entries = {(c.edge_ids(), e.id) for c, run in report_a.runs for e in run}
    slow_entries = naive_entries(g, slow_cycles)
    a_agrees = (not slow_entries) == report_a.passed and fast_cycles == slow_cycles
    entries_agree = fast_entries == slow_entries

    def details(max_prefix: int) -> dict:
        return {
            "cycles": sorted(fast_cycles),
            "entry_count": len(fast_entries),
            "max_prefix": max_prefix,
        }

    if not report_a.passed:
        return [OracleReport(a_agrees, entries_agree, None, None, details(budget)) for budget in budgets]

    reach = naive_reach_sets(g)
    ancestors = {u: frozenset(w for w in g.vertices if u in reach[w]) for u in g.vertices}
    sep_memo: dict[tuple[frozenset, frozenset], bool] = {}

    def separated(x: EventualPath, y: EventualPath) -> bool:
        from_x = frozenset().union(*(reach[v] for v in vertices_on(x)))
        from_y = frozenset().union(*(reach[v] for v in vertices_on(y)))
        key = (from_x, from_y)
        if key not in sep_memo:
            sep_memo[key] = any(
                ancestors[u].isdisjoint(ancestors[v]) for u in from_x for v in from_y
            )
        return sep_memo[key]

    fast_b = verdict.condition_b.status == "pass"
    reports = []
    for max_prefix in budgets:
        paths = enumerate_eventual_paths(g, max_prefix, slow_cycles)
        classes = naive_shift_classes(paths)
        orbit_count_agrees = len(classes) == len(report_a.cycles)
        slow_b = all(
            separated(x, y)
            for i, cls in enumerate(classes)
            for other in classes[i + 1 :]
            for x in cls
            for y in other
        )
        found = details(max_prefix)
        found["paths_enumerated"] = len(paths)
        found["shift_classes"] = len(classes)
        found["condition_b"] = {"fast": fast_b, "paths": slow_b}
        reports.append(OracleReport(a_agrees, entries_agree, orbit_count_agrees, slow_b == fast_b, found))
    return reports
