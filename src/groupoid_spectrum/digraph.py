"""Finite directed multigraphs, strongly connected components, and cycle/entry analysis.

Conventions (fixed throughout the package):

* An edge e runs src(e) -> rng(e); walks and reachability follow that arrow.
* A finite path e1 e2 ... en composes head-first: src(e_i) == rng(e_{i+1}).
  The range of the path is rng(e1) and its source is src(en), so longer
  paths extend on the source side.
* A graph is *validated* when every endpoint names a declared vertex and
  every vertex v has at least one edge with rng == v (no sources), which is
  what infinite-path extension needs.
* An *entry* to a simple cycle c is an edge e not on c with rng(e) on c.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from operator import attrgetter

from . import _kernels
from .exact import InputError

__all__ = [
    "Edge",
    "DiGraph",
    "FinPath",
    "CycleRep",
    "Components",
    "Violation",
    "InvalidGraphError",
    "GraphParseError",
    "validate_graph",
    "require_validated",
    "strongly_connected_components",
    "entry_free_cycles",
    "cycle_vertices",
    "in_range_degrees",
    "parse_graph_text",
    "parse_graph_json",
    "parse_graph",
    "graph_to_text",
    "graph_to_json",
]


@dataclass(frozen=True)
class Edge:
    id: str
    src: str
    rng: str


class GraphParseError(InputError):
    """Malformed graph input; carries a line number for text input."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Violation:
    """One reason a graph fails validation."""

    # "empty-graph" | "duplicate-vertex" | "duplicate-edge" | "undeclared-endpoint" | "no-range-edge"
    kind: str
    subject: str
    detail: str

    def to_json(self) -> dict:
        return {"kind": self.kind, "subject": self.subject, "detail": self.detail}


class InvalidGraphError(InputError):
    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(v.detail for v in violations))


@dataclass(frozen=True)
class DiGraph:
    """Immutable finite directed multigraph with string ids."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    @classmethod
    def build(cls, vertices, edges) -> "DiGraph":
        """Construct from iterables; edges may be Edge or (id, src, rng)."""
        vs = tuple(vertices)
        es = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)
        return cls(vs, es)

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def arc_indices(self) -> list[tuple[int, int]]:
        """Edges as (src index, rng index) pairs, in edge order."""
        vi = self.vertex_index
        return [(vi[e.src], vi[e.rng]) for e in self.edges]

    @cached_property
    def successors(self) -> list[list[int]]:
        """Range index of every edge leaving each vertex, in edge order."""
        succ: list[list[int]] = [[] for _ in self.vertices]
        for s, d in self.arc_indices:
            succ[s].append(d)
        return succ

    @cached_property
    def components(self) -> "Components":
        """Strongly connected components; shared by conditions A and B."""
        return strongly_connected_components(self)

    def transpose(self) -> "DiGraph":
        """Same graph with every edge reversed."""
        return DiGraph(self.vertices, tuple(Edge(e.id, e.rng, e.src) for e in self.edges))


def validate_graph(g: DiGraph) -> list[Violation]:
    """All validation violations, in a deterministic order; empty means valid."""
    violations: list[Violation] = []
    if not g.vertices:
        # every graph property holds vacuously on the empty graph
        violations.append(Violation("empty-graph", "", "graph has no vertices"))
    seen_v: set[str] = set()
    for v in g.vertices:
        if v in seen_v:
            violations.append(Violation("duplicate-vertex", v, f"vertex id {v!r} declared twice"))
        seen_v.add(v)
    seen_e: set[str] = set()
    for e in g.edges:
        if e.id in seen_e:
            violations.append(Violation("duplicate-edge", e.id, f"edge id {e.id!r} declared twice"))
        seen_e.add(e.id)
        for end, val in (("src", e.src), ("rng", e.rng)):
            if val not in seen_v:
                violations.append(
                    Violation(
                        "undeclared-endpoint",
                        e.id,
                        f"edge {e.id!r} has {end} {val!r} which is not a declared vertex",
                    )
                )
    covered = {e.rng for e in g.edges}
    for v in g.vertices:
        if v not in covered:
            violations.append(
                Violation("no-range-edge", v, f"vertex {v!r} has no edge with range {v!r}")
            )
    return violations


def require_validated(g: DiGraph) -> None:
    violations = validate_graph(g)
    if violations:
        raise InvalidGraphError(violations)


@dataclass(frozen=True)
class FinPath:
    """Nonempty finite path; edges listed head-first (see module docstring)."""

    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if not self.edges:
            raise ValueError("finite path must contain at least one edge")
        _check_composable(self.edges)

    @property
    def range_vertex(self) -> str:
        return self.edges[0].rng

    @property
    def source_vertex(self) -> str:
        return self.edges[-1].src

    def __len__(self) -> int:
        return len(self.edges)


def _check_composable(edges: tuple[Edge, ...]) -> None:
    for left, right in zip(edges, edges[1:]):
        if left.src != right.rng:
            raise ValueError(
                f"edges {left.id!r} and {right.id!r} do not compose: "
                f"src {left.src!r} != rng {right.rng!r}"
            )


@dataclass(frozen=True)
class CycleRep:
    """A simple cycle, stored in its canonical rotation.

    Edges are in path convention, cyclically composable, visiting each vertex
    once.  The canonical rotation starts at the lexicographically least edge
    id, so equality of CycleReps is equality of cycles.
    """

    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        edges = tuple(self.edges)
        if not edges:
            raise ValueError("cycle must contain at least one edge")
        _check_composable(edges)
        if edges[-1].src != edges[0].rng:
            raise ValueError("cycle does not close up")
        verts = [e.rng for e in edges]
        if len(set(verts)) != len(verts):
            raise ValueError("cycle is not simple: repeated vertex")
        ids = [e.id for e in edges]
        k = ids.index(min(ids))
        object.__setattr__(self, "edges", edges[k:] + edges[:k])

    @property
    def vertices(self) -> frozenset[str]:
        return frozenset(e.rng for e in self.edges)

    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.edges)

    def __len__(self) -> int:
        return len(self.edges)

    def sort_key(self) -> tuple:
        return (len(self.edges), self.edge_ids())


@dataclass(frozen=True)
class Components:
    """Strongly connected components in topological order of the condensation.

    Component ids follow a topological order: every edge between two
    components runs from a lower id to a higher one, so sources come first.
    """

    of: tuple[int, ...]  # component id per vertex index
    members: tuple[tuple[int, ...], ...]  # vertex indices per component
    cyclic: tuple[bool, ...]  # the component carries a cycle (>1 vertex or a loop)


def strongly_connected_components(g: DiGraph) -> Components:
    """One Tarjan pass, in O(V + E)."""
    found = _kernels.components(g.successors)
    of = [0] * len(g.vertices)
    for c, comp in enumerate(found):
        for v in comp:
            of[v] = c
    cyclic = [len(comp) > 1 for comp in found]
    for s, d in g.arc_indices:
        if s == d:
            cyclic[of[s]] = True
    return Components(tuple(of), tuple(map(tuple, found)), tuple(cyclic))


def entry_free_cycles(
    g: DiGraph,
) -> tuple[tuple[CycleRep, ...], tuple[tuple[CycleRep, tuple[Edge, ...]], ...]]:
    """All simple cycles, sorted by ``CycleRep.sort_key``, and their entry runs.

    Each run is a cycle with entries, in cycle order, and its entry edges in
    edge id order; no run is empty.  Cycles are enumerated inside the cyclic
    components, in time bounded by the output.  Condition A holds iff there
    are no runs: iff no cycle vertex has a second in-range edge.
    """
    comps = g.components
    parts = list(compress(comps.members, comps.cyclic))
    cycles = [
        # kernel output is in traversal order; path convention is its reverse
        CycleRep(tuple(map(g.edges.__getitem__, reversed(arc_tuple))))
        for arc_tuple in _kernels.simple_cycles(g.arc_indices, parts)
    ]
    cycles.sort(key=CycleRep.sort_key)
    # each cycle's entries in edge id order, walking the sorted cycles, give
    # the runs in (cycle, entry id) order without sorting across cycles
    on_cycles = cycle_vertices(g)
    into_cycles = [e for e in g.edges if e.rng in on_cycles]
    if len(into_cycles) == len(on_cycles):
        # each cycle vertex has its cycle's in-edge, so none has a second
        return tuple(cycles), ()
    by_id = sorted(into_cycles, key=attrgetter("id"))
    into: dict[str, list[int]] = {}  # ranks in by_id of the edges into each vertex
    for rank, e in enumerate(by_id):
        into.setdefault(e.rng, []).append(rank)
    runs = []
    for c in cycles:
        on_cycle = {e.id for e in c.edges}
        ranks = sorted(chain.from_iterable(into[e.rng] for e in c.edges))
        run = tuple(e for e in map(by_id.__getitem__, ranks) if e.id not in on_cycle)
        if run:
            runs.append((c, run))
    return tuple(cycles), tuple(runs)


def cycle_vertices(g: DiGraph) -> frozenset[str]:
    """Vertices lying on at least one cycle: those of cyclic components."""
    comps = g.components
    return frozenset(
        g.vertices[v] for members in compress(comps.members, comps.cyclic) for v in members
    )


def in_range_degrees(g: DiGraph) -> dict[str, int]:
    """Number of edges with rng == v, per vertex."""
    deg = {v: 0 for v in g.vertices}
    for e in g.edges:
        deg[e.rng] += 1
    return deg


# ---------------------------------------------------------------------------
# Input/output formats


def _numbered_records(text: str):
    """(line number, record) pairs, where lines end only at \\n, \\r\\n and \\r.

    Records also end where ``str.splitlines`` breaks: \\v, \\f, \\x1c-\\x1e, \\x85, \\u2028, \\u2029.
    """
    if not any(c in text for c in "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"):
        return enumerate(text.splitlines(), start=1)
    by_line = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return ((n, record) for n, line in enumerate(by_line, start=1) for record in line.splitlines())


def parse_graph_text(text: str) -> DiGraph:
    """Line format: 'v <id>' and 'e <id> <src> <rng>'; '#' starts a comment."""
    vertices: list[str] = []
    edges: list[Edge] = []
    for lineno, raw in _numbered_records(text):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) != 2:
                raise GraphParseError(f"expected 'v <id>', got {raw.strip()!r}", lineno)
            vertices.append(parts[1])
        elif parts[0] == "e":
            if len(parts) != 4:
                raise GraphParseError(f"expected 'e <id> <src> <rng>', got {raw.strip()!r}", lineno)
            edges.append(Edge(parts[1], parts[2], parts[3]))
        else:
            raise GraphParseError(f"unknown record {parts[0]!r}", lineno)
    return DiGraph(tuple(vertices), tuple(edges))


def _json_id(value, where: str) -> str:
    """An id the text format can hold: a nonempty string, no whitespace, no '#'."""
    if not isinstance(value, str) or value.split() != [value] or "#" in value:
        raise GraphParseError(
            f"malformed graph JSON: {where} must be a nonempty string without "
            f"whitespace or '#', got {json.dumps(value, default=repr)}"
        )
    return value


def parse_graph_json(obj) -> DiGraph:
    """JSON object form: {"vertices": [...], "edges": [{"id","src","rng"}, ...]}."""
    if not isinstance(obj, dict):
        raise GraphParseError("graph JSON must be an object")
    for key in ("vertices", "edges"):
        if not isinstance(obj.get(key), list):
            raise GraphParseError(f"malformed graph JSON: {key!r} must be a list")
    vertices = [_json_id(v, f"vertex {k}") for k, v in enumerate(obj["vertices"])]
    edges = []
    for k, e in enumerate(obj["edges"]):
        if not isinstance(e, dict):
            raise GraphParseError(f"malformed graph JSON: edge {k} must be an object")
        edges.append(Edge(*(_json_id(e.get(f), f"edge {k} {f!r}") for f in ("id", "src", "rng"))))
    return DiGraph(tuple(vertices), tuple(edges))


def parse_graph(text: str) -> DiGraph:
    """Sniff JSON vs line format and parse accordingly."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # ValueError covers malformed JSON and integers past the digit limit
            raise GraphParseError(f"invalid JSON: {exc}") from None
        return parse_graph_json(obj)
    return parse_graph_text(text)


def graph_to_text(g: DiGraph) -> str:
    lines = [f"v {v}" for v in g.vertices]
    lines += [f"e {e.id} {e.src} {e.rng}" for e in g.edges]
    return "\n".join(lines) + "\n"


def graph_to_json(g: DiGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [{"id": e.id, "src": e.src, "rng": e.rng} for e in g.edges],
    }
