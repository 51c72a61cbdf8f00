"""Finite directed multigraphs and their cycle/entry analysis.

Conventions (fixed throughout the package):

* An edge e runs src(e) -> rng(e); walks and reachability follow that arrow.
* A finite path e1 e2 ... en composes head-first: src(e_i) == rng(e_{i+1}).
  The range of the path is rng(e1) and its source is src(en), so longer
  paths extend on the source side.
* A graph is *validated* when every endpoint names a declared vertex and
  every vertex v has at least one edge with rng == v (no sources), which is
  what infinite-path extension needs.
* An *entry* to a simple cycle c is an edge e not on c with rng(e) on c.

A ``DiGraph`` is held as integer arrays: each edge's source and range are
indices into the vertex names.  ``Edge`` objects are built on demand, once
per edge, for the edges a caller looks at; the decision builds none, since
its cycles and entries are ranks: places in one ranking of edge indices by id.

Condition A (no cycle has an entry) is an in-degree property, decided in
O(V + E) by ``DiGraph.pointer_cycles``; only when it fails does the kernel
search for cycles.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from functools import cached_property
from itertools import chain, compress

from . import InputError, _kernels, _unique_keys
from ._record import Record

__all__ = [
    "Edge",
    "DiGraph",
    "CycleRep",
    "Violation",
    "InvalidGraphError",
    "GraphParseError",
    "validate_graph",
    "require_validated",
    "entry_free_cycles",
    "parse_graph_text",
    "parse_graph_json",
    "parse_graph",
    "graph_to_text",
    "graph_to_json",
]


class Edge(Record):
    """Edge ``id`` from vertex ``src`` to vertex ``rng``, its range."""

    __slots__ = ("id", "src", "rng")


class GraphParseError(InputError):
    """Malformed graph input; carries a line number for text input."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Violation(Record):
    """One reason a graph fails validation.

    ``kind`` is "empty-graph", "duplicate-vertex", "duplicate-edge",
    "undeclared-endpoint" or "no-range-edge"; ``subject`` is the id it is
    about ("" for an empty graph), and ``detail`` the message.
    """

    __slots__ = ("kind", "subject", "detail")

    def to_json(self) -> dict:
        return {"kind": self.kind, "subject": self.subject, "detail": self.detail}


class InvalidGraphError(InputError):
    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(v.detail for v in violations))


class DiGraph(Record):
    """Immutable finite directed multigraph with string ids, held as index arrays.

    ``vertices`` and ``edge_ids`` are the declared ids in input order.  Edge j
    runs from ``names[src[j]]`` to ``names[dst[j]]``, where ``names`` is
    ``vertices`` followed by the undeclared endpoints in sorted order, and a
    vertex id declared twice indexes its first declaration.  On a validated
    graph ``names`` is ``vertices``.
    """

    # __dict__ holds the cached properties
    __slots__ = ("vertices", "edge_ids", "src", "dst", "names", "__dict__")

    @classmethod
    def build(cls, vertices, edges) -> "DiGraph":
        """Construct from iterables; edges may be Edge or (id, src, rng).

        Every id must be one both file formats can hold (see ``_json_id``).
        """
        vs = [_json_id(v, f"vertex {k}") for k, v in enumerate(vertices)]
        es = [e if isinstance(e, Edge) else Edge(*e) for e in edges]
        for k, e in enumerate(es):
            for f in ("id", "src", "rng"):
                _json_id(getattr(e, f), f"edge {k} {f!r}")
        return cls._from_ids(vs, [e.id for e in es], [e.src for e in es], [e.rng for e in es])

    @classmethod
    def _from_ids(cls, vertices, edge_ids, srcs, dsts) -> "DiGraph":
        """The graph whose edge j runs from vertex id ``srcs[j]`` to ``dsts[j]``."""
        vertices = tuple(vertices)
        # reversed, so that a repeated id keeps its first index
        index = dict(zip(reversed(vertices), range(len(vertices) - 1, -1, -1)))
        names = vertices
        try:
            src = tuple(map(index.__getitem__, srcs))
            dst = tuple(map(index.__getitem__, dsts))
        except KeyError:  # undeclared endpoints get the indices after the vertices
            names += tuple(sorted(set(chain(srcs, dsts)).difference(index)))
            index.update(zip(names[len(vertices):], range(len(vertices), len(names))))
            src = tuple(map(index.__getitem__, srcs))
            dst = tuple(map(index.__getitem__, dsts))
        return cls(vertices, tuple(edge_ids), src, dst, names)

    @cached_property
    def edges(self) -> "EdgeView":
        return EdgeView(self)

    @cached_property
    def edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def pointer_cycles(self) -> tuple[list[tuple[int, ...]], list[int]] | None:
        """The pointer cycles and each vertex's mask of the cycles that reach it; None unless A holds.

        Each vertex with an in-edge points back along its first one; each
        cycle of these pointers is a cycle of the graph, given as its edge
        indices in traversal order.  Condition A holds iff every vertex on
        them has in-degree 1 and a Kahn peel (Kahn 1962) seeded with them and
        the vertices without in-edges takes every vertex: a cycle the peel
        leaves is no pointer cycle, so some vertex of it has an entry as its
        first in-edge.  Then the pointer cycles are all the cycles, and bit i
        of ``masks[v]`` is set iff the i-th pointer cycle reaches v: the peel
        seeds each cycle's vertices with its bit and ORs each vertex's mask
        into the heads of its out-edges, read from per-vertex head lists built
        after the walk, and it takes a vertex only after the tails of all its
        in-edges.  O(V + E) mask operations.
        """
        n = len(self.names)
        src, dst = self.src, self.dst
        first, left = [-1] * n, [0] * n  # the first in-edge and the in-degree of each vertex
        for j, d in enumerate(dst):
            if not left[d]:
                first[d] = j
            left[d] += 1
        walked = [-1] * n  # the root of the walk that reached each vertex
        masks = [0] * n
        cycles = []
        for root in range(n):
            if walked[root] >= 0:
                continue
            v, path = root, []
            while walked[v] < 0:
                walked[v] = root
                path.append(v)
                if first[v] < 0:
                    break
                v = src[first[v]]
            else:
                if walked[v] == root:  # the walk closed on itself
                    ring = path[path.index(v):]
                    if any(left[u] > 1 for u in ring):
                        return None
                    bit = 1 << len(cycles)
                    for u in ring:
                        masks[u] = bit
                        left[u] = 0  # its only in-edge is its cycle's, which takes it below 0
                    cycles.append(tuple(map(first.__getitem__, reversed(ring))))
        order = [v for v in range(n) if masks[v] or first[v] < 0]
        heads: list[list[int]] = [[] for _ in range(n)]  # the heads of each vertex's out-edges
        for s, d in zip(src, dst):
            heads[s].append(d)
        for u in order:
            mask = masks[u]
            for w in heads[u]:
                masks[w] |= mask
                left[w] -= 1
                if not left[w]:
                    order.append(w)
        return (cycles, masks) if len(order) == n else None

    def transpose(self) -> "DiGraph":
        """Same graph with every edge reversed."""
        return DiGraph(self.vertices, self.edge_ids, self.dst, self.src, self.names)


class EdgeView(Sequence):
    """A graph's edges as ``Edge`` objects; each is built on its first request and kept."""

    def __init__(self, g: DiGraph):
        # the arrays, not the graph, which holds this view: no reference cycle
        self._arrays = g.edge_ids, g.src, g.dst, g.names
        self._built: dict[int, Edge] = {}

    def __len__(self) -> int:
        return len(self._arrays[0])

    def __getitem__(self, j):
        picked = range(len(self))[j]  # negative indices and slices, as on a tuple
        if isinstance(picked, range):
            return tuple(self.at(picked))
        return self.at((picked,))[0]

    def __iter__(self):
        return iter(self.at(range(len(self))))

    def at(self, js) -> list[Edge]:
        """The edges with the indices in the sequence ``js``; those not yet built are built now."""
        built = self._built
        new = [j for j in js if j not in built]
        if new:
            ids, src, dst, names = self._arrays
            srcs = map(names.__getitem__, map(src.__getitem__, new))
            rngs = map(names.__getitem__, map(dst.__getitem__, new))
            built.update(zip(new, map(Edge, map(ids.__getitem__, new), srcs, rngs)))
        return list(map(built.__getitem__, js))


def validate_graph(g: DiGraph) -> list[Violation]:
    """All validation violations, in a deterministic order; empty means valid."""
    violations: list[Violation] = []
    n = len(g.vertices)
    if not n:
        # every graph property holds vacuously on the empty graph
        violations.append(Violation("empty-graph", "", "graph has no vertices"))
    repeated = len(set(g.vertices)) < n
    if repeated:
        seen_v: set[str] = set()
        for v in g.vertices:
            if v in seen_v:
                violations.append(Violation("duplicate-vertex", v, f"vertex id {v!r} declared twice"))
            seen_v.add(v)
    if len(g.names) > n or len(set(g.edge_ids)) < len(g.edge_ids):
        seen_e: set[str] = set()
        for eid, s, d in zip(g.edge_ids, g.src, g.dst):
            if eid in seen_e:
                violations.append(Violation("duplicate-edge", eid, f"edge id {eid!r} declared twice"))
            seen_e.add(eid)
            for end, k in (("src", s), ("rng", d)):
                if k >= n:
                    violations.append(
                        Violation(
                            "undeclared-endpoint",
                            eid,
                            f"edge {eid!r} has {end} {g.names[k]!r} which is not a declared vertex",
                        )
                    )
    covered = set(g.dst)
    if repeated or not covered.issuperset(range(n)):
        covered_names = set(map(g.names.__getitem__, covered))
        for v in g.vertices:
            if v not in covered_names:
                violations.append(
                    Violation("no-range-edge", v, f"vertex {v!r} has no edge with range {v!r}")
                )
    return violations


def require_validated(g: DiGraph) -> None:
    violations = validate_graph(g)
    if violations:
        raise InvalidGraphError(violations)


def _check_composable(edges: tuple[Edge, ...]) -> None:
    for left, right in zip(edges, edges[1:]):
        if left.src != right.rng:
            raise ValueError(
                f"edges {left.id!r} and {right.id!r} do not compose: "
                f"src {left.src!r} != rng {right.rng!r}"
            )


class CycleRep(Record):
    """A simple cycle, stored in its canonical rotation.

    Edges are in path convention, cyclically composable, visiting each vertex
    once.  The canonical rotation starts at the lexicographically least edge
    id, so equality of CycleReps is equality of cycles.
    """

    __slots__ = ("edges",)

    def __init__(self, edges: tuple[Edge, ...]) -> None:
        edges = tuple(edges)
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
        super().__init__(edges[k:] + edges[:k])

    @classmethod
    def _checked(cls, edges: tuple[Edge, ...]) -> "CycleRep":
        """The cycle of ``edges``, which ``entry_free_cycles`` has checked and rotated."""
        rep = object.__new__(cls)
        Record.__init__(rep, edges)
        return rep

    @property
    def vertices(self) -> frozenset[str]:
        return frozenset(e.rng for e in self.edges)

    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.edges)

    def __len__(self) -> int:
        return len(self.edges)

    def sort_key(self) -> tuple:
        return (len(self.edges), self.edge_ids())


def entry_free_cycles(
    g: DiGraph,
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[tuple[int, tuple[int, ...]], ...]]:
    """All simple cycles and their entry runs, as ranks of edges of ``g``: ``(order, cycles, runs)``.

    ``order[r]`` is the index of the edge of rank r: edges rank by id, ties
    by index.  Each cycle is its ranks in path order, the least first, and
    the cycles are sorted by length, then by ranks (``CycleRep.sort_key``).
    Each run ``(k, entries)`` is the position k of a cycle with entries and
    its entry ranks, ascending, in cycle order; condition A holds iff there
    are no runs.

    Only the edges into cycle vertices are ranked: the cycle edges and their
    entries.  ``g.pointer_cycles`` decides condition A in O(V + E) and, when
    it holds, gives all the cycles.  Otherwise one Tarjan search of the
    kernel finds the cyclic components, and one pass over the ranks lists,
    per cycle vertex, its out-edges inside its component, for Johnson's
    search, and all its in-edges: a cycle's entries are the other edges into
    its vertices.  The search runs in time bounded by the output.  Every
    cycle gets ``CycleRep``'s checks, on the ranks.
    """
    pointer = g.pointer_cycles  # None when condition A fails
    if pointer:
        order = tuple(sorted(sorted(chain.from_iterable(pointer[0])), key=g.edge_ids.__getitem__))
        rank = dict(zip(order, range(len(order))))
        found = [tuple(map(rank.__getitem__, arcs)) for arcs in pointer[0]]
        heads_of = list(map(g.dst.__getitem__, order))  # per rank, the edge's head and tail
        tails_of = list(map(g.src.__getitem__, order))
    else:
        n = len(g.names)
        out: list[list[int]] = [[] for _ in range(n)]  # per vertex, the indices of its out-edges
        for j, s in enumerate(g.src):
            out[s].append(j)
        parts = _kernels.components(out, g.dst)
        part_of = [0] * n  # 1 + the position of a vertex's component, 0 off every cycle
        inner: list = [None] * n  # per cycle vertex, the ranks of its out-edges inside its component
        into: list = [None] * n  # and of all its in-edges
        for k, part in enumerate(parts, 1):
            for v in part:
                part_of[v] = k
                inner[v], into[v] = [], []
        # the edges into cycle vertices: the cycle edges and their entries
        ranked = compress(range(len(g.dst)), map(part_of.__getitem__, g.dst))
        order = tuple(sorted(ranked, key=g.edge_ids.__getitem__))
        heads_of = list(map(g.dst.__getitem__, order))
        tails_of = list(map(g.src.__getitem__, order))
        for r, (s, d) in enumerate(zip(tails_of, heads_of)):
            into[d].append(r)
            if part_of[s] == part_of[d]:
                inner[s].append(r)
        found = _kernels.simple_cycles(heads_of, inner, parts)
    cycles = []
    for ranks in found:  # traversal order: each edge's tail is the previous edge's head
        heads = list(map(heads_of.__getitem__, ranks))
        if heads:
            heads.insert(0, heads.pop())  # per edge, the head of the edge before it
        if not heads or list(map(tails_of.__getitem__, ranks)) != heads or len(set(heads)) < len(heads):
            CycleRep(tuple(g.edges.at([order[r] for r in reversed(ranks)])))  # raises CycleRep's error
        k = ranks.index(min(ranks))
        cycles.append(ranks[k::-1] + ranks[:k:-1])  # path order, from the least rank
    cycles.sort()
    cycles.sort(key=len)  # stable: by length, then by ranks
    if pointer:
        return order, tuple(cycles), ()
    runs = []
    for k, ranks in enumerate(cycles):
        # the other edges into the head of each cycle edge: each is an entry
        entries = sorted([s for r in ranks for s in into[heads_of[r]] if s != r])
        if entries:
            runs.append((k, tuple(entries)))
    return order, tuple(cycles), tuple(runs)


# ---------------------------------------------------------------------------
# Input/output formats


def _line_of(text: str, record: str) -> int:
    """The number of the line that holds the first record of ``text`` equal to ``record``.

    Lines end only at \\n, \\r\\n and \\r.  Records end at every break of
    ``str.splitlines``, which adds \\v, \\f, \\x1c-\\x1e, \\x85, \\u2028 and
    \\u2029, and each line's records are its ``splitlines``, so every
    nonblank record of ``text.splitlines()`` is a record of some line.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return next(n for n, line in enumerate(lines, start=1) if record in line.splitlines())


def parse_graph_text(text: str) -> DiGraph:
    """Line format: 'v <id>' and 'e <id> <src> <rng>'; '#' starts a comment.

    The records are read without line numbers.  A bad record's number is
    found when it raises, as that of the first record equal to it: an equal
    earlier record would have raised first.
    """
    vertices: list[str] = []
    ids: list[str] = []
    srcs: list[str] = []
    rngs: list[str] = []
    # one column per field, not a list per line: the columns are what the graph is built from
    add_id, add_src, add_rng = ids.append, srcs.append, rngs.append
    comments = "#" in text
    for raw in text.splitlines():
        parts = (raw.split("#", 1)[0] if comments else raw).split()
        if not parts:
            continue
        if parts[0] == "e" and len(parts) == 4:
            add_id(parts[1])
            add_src(parts[2])
            add_rng(parts[3])
        elif parts[0] == "v" and len(parts) == 2:
            vertices.append(parts[1])
        else:
            if parts[0] == "v":
                message = f"expected 'v <id>', got {raw.strip()!r}"
            elif parts[0] == "e":
                message = f"expected 'e <id> <src> <rng>', got {raw.strip()!r}"
            else:
                message = f"unknown record {parts[0]!r}"
            raise GraphParseError(message, _line_of(text, raw))
    return DiGraph._from_ids(vertices, ids, srcs, rngs)


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
    fields: tuple[list[str], ...] = ([], [], [])  # ids, srcs, rngs
    for k, e in enumerate(obj["edges"]):
        if not isinstance(e, dict):
            raise GraphParseError(f"malformed graph JSON: edge {k} must be an object")
        for column, f in zip(fields, ("id", "src", "rng")):
            column.append(_json_id(e.get(f), f"edge {k} {f!r}"))
    return DiGraph._from_ids(vertices, *fields)


def parse_graph(text: str) -> DiGraph:
    """Sniff JSON vs line format and parse accordingly."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text, object_pairs_hook=_unique_keys)
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
