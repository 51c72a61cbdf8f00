"""Graph kernels over dense integer indices: components and simple cycles.

Vertices and arcs are dense integer indices, and the arcs leaving each
vertex are given in compressed rows: offsets ``start`` into a flat array.
The cycle search splits the graph into strongly connected components itself.
"""

from __future__ import annotations

from itertools import accumulate, chain

BACKEND = "python"

__all__ = ["BACKEND", "components", "simple_cycles"]


def components(start: list[int], heads: list[int]) -> list[list[int]]:
    """Strongly connected components, sources first (Tarjan 1972, iterative).

    Vertex v has arcs to ``heads[start[v]:start[v + 1]]``.  A vertex whose
    component is complete gets the index n, above every visit number, so it
    never lowers a link, and a vertex without arcs is a component at once.
    """
    n = len(start) - 1
    index = [-1] * n  # visit number, then n
    low = [0] * n
    stack: list[int] = []
    found: list[list[int]] = []  # reverse topological order
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(heads[start[root]:start[root + 1]]))]
        while work:
            v, it = work[-1]
            for w in it:
                x = index[w]
                if x < 0:
                    a, b = start[w], start[w + 1]
                    if a == b:
                        index[w] = n
                        found.append([w])
                        continue
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(heads[a:b])))
                    break
                if x < low[v]:
                    low[v] = x
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = n
                        comp.append(w)
                        if w == v:
                            break
                    found.append(comp)
    return found[::-1]


def simple_cycles(dst: list[int], start: list[int], arcs: list[int]) -> list[tuple[int, ...]]:
    """All simple cycles, as tuples of arc indices in traversal order.

    Arc j runs to ``dst[j]``; the arcs leaving vertex v are
    ``arcs[start[v]:start[v + 1]]``.  Johnson's algorithm (1975): search each
    cyclic component from its least vertex with blocking, then the cyclic
    components of the rest.  Every part searched is a cyclic component, so
    each search finds a cycle and the time is O((V + E)(C + 1)) for C cycles.
    Parallel arcs yield distinct cycles; the output order is deterministic.
    """
    todo = _cyclic_parts(range(len(start) - 1), start, list(map(dst.__getitem__, arcs)))
    out = {v: arcs[start[v]:start[v + 1]] for part in todo for v in part}
    cycles: list[tuple[int, ...]] = []
    while todo:
        part = todo.pop()
        s = part.pop()  # the least vertex: parts are sorted in descending order
        _circuits(out, dst, {s, *part}, s, cycles)
        local = {v: k for k, v in enumerate(part)}
        succ = [[local[dst[j]] for j in out[v] if dst[j] in local] for v in part]
        if any(succ):  # a rest without arcs has no cycle
            rows = list(accumulate(map(len, succ), initial=0))
            todo += _cyclic_parts(part, rows, list(chain.from_iterable(succ)))
    return cycles


def _cyclic_parts(names, start: list[int], heads: list[int]) -> list[list[int]]:
    """The components with a cycle (>1 vertex or a loop), as ``names`` in descending order.

    Vertex k, called ``names[k]``, has arcs to ``heads[start[k]:start[k + 1]]``.
    """
    return [
        sorted(map(names.__getitem__, comp), reverse=True)
        for comp in components(start, heads)
        if len(comp) > 1 or comp[0] in heads[start[comp[0]]:start[comp[0] + 1]]
    ]


def _circuits(out, dst, inside: set[int], s: int, cycles: list) -> None:
    """Johnson's blocked search for the cycles through ``s`` and ``inside``."""
    blocked = {s}
    waiting: dict[int, set[int]] = {}  # w -> vertices to unblock with w
    path: list[int] = []
    frames = [[s, iter(out[s]), False]]  # vertex, arcs left, found a cycle
    while frames:
        frame = frames[-1]
        for j in frame[1]:
            w = dst[j]
            if w == s:
                cycles.append((*path, j))
                frame[2] = True
            elif w in inside and w not in blocked:
                path.append(j)
                blocked.add(w)
                frames.append([w, iter(out[w]), False])
                break
        else:
            v, _, found = frames.pop()
            if found:
                stack = [v]
                while stack:
                    u = stack.pop()
                    if u in blocked:
                        blocked.discard(u)
                        stack += waiting.pop(u, ())
            else:
                for j in out[v]:
                    waiting.setdefault(dst[j], set()).add(v)
            if frames:
                path.pop()
                frames[-1][2] |= found
