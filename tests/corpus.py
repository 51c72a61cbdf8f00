"""Deterministic graph corpora for the verification sweeps of the tests.

Validated graphs are exactly those where every vertex has at least one
in-range edge, so labeled enumeration factors through per-vertex nonempty
sets of incoming arcs.  Generators yield graphs in a fixed order; the random
generator is seeded and platform independent.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from typing import Iterator

from groupoid_spectrum.digraph import DiGraph

__all__ = [
    "enumerate_validated_simple",
    "enumerate_validated_multi",
    "random_validated_graph",
    "random_corpus",
]

_VNAMES = tuple(f"v{i}" for i in range(128))


def _graph_from_arcs(n: int, arcs: list[tuple[int, int]]) -> DiGraph:
    counts: dict[tuple[int, int], int] = {}
    ids = []
    for s, r in arcs:
        k = counts.get((s, r), 0)
        counts[(s, r)] = k + 1
        ids.append(f"e{s}{r}" + ("" if k == 0 else f"x{k}"))
    src, dst = zip(*arcs) if arcs else ((), ())
    return DiGraph(_VNAMES[:n], tuple(ids), src, dst, _VNAMES[:n])


def enumerate_validated_simple(n: int, max_edges: int) -> Iterator[DiGraph]:
    """All labeled validated simple digraphs on n vertices with <= max_edges.

    Simple means no parallel edges (self-loops allowed).  Enumeration runs
    over the product of nonempty incoming-arc sets per vertex, pruned by the
    remaining edge budget (every later vertex still needs one arc).
    """
    per_vertex = []
    for v in range(n):
        arcs = [(s, v) for s in range(n)]
        choices = []
        for size in range(1, n + 1):
            choices.extend(combinations(arcs, size))
        per_vertex.append(choices)

    def descend(v: int, budget: int, acc: list) -> Iterator[DiGraph]:
        if v == n:
            yield _graph_from_arcs(n, [a for group in acc for a in group])
            return
        still_needed = n - v - 1
        for group in per_vertex[v]:
            if len(group) + still_needed <= budget:
                yield from descend(v + 1, budget - len(group), acc + [group])

    yield from descend(0, max_edges, [])


def enumerate_validated_multi(n: int, max_edges: int, max_mult: int = 2) -> Iterator[DiGraph]:
    """All validated multigraphs on n vertices: arc multiplicities up to max_mult."""
    slots = [(s, r) for s in range(n) for r in range(n)]
    for mults in product(range(max_mult + 1), repeat=len(slots)):
        total = sum(mults)
        if total > max_edges or total == 0:
            continue
        arcs = [slot for slot, m in zip(slots, mults) for _ in range(m)]
        if {r for _, r in arcs} != set(range(n)):
            continue
        yield _graph_from_arcs(n, arcs)


def random_validated_graph(
    rng: random.Random, max_vertices: int = 8, max_extra_edges: int = 5
) -> DiGraph:
    """One random validated multigraph: an in-range arc per vertex plus extras."""
    n = rng.randint(1, max_vertices)
    arcs = [(rng.randrange(n), v) for v in range(n)]
    for _ in range(rng.randint(0, max_extra_edges)):
        arcs.append((rng.randrange(n), rng.randrange(n)))
    arcs.sort()
    return _graph_from_arcs(n, arcs)


def random_corpus(count: int, seed: int, max_vertices: int = 8) -> Iterator[DiGraph]:
    rng = random.Random(seed)
    for _ in range(count):
        yield random_validated_graph(rng, max_vertices=max_vertices)
