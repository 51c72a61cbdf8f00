"""Graph kernels over dense integer indices: components and simple cycles.

Vertices and arcs are dense integer indices; an arc j is the pair
(src[j], dst[j]) and a walk follows arcs src -> dst.
"""

from __future__ import annotations

BACKEND = "python"

__all__ = ["BACKEND", "components", "simple_cycles"]


def components(succ: list[list[int]]) -> list[list[int]]:
    """Strongly connected components of ``succ``, sources first (Tarjan 1972, iterative)."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    found: list[list[int]] = []  # reverse topological order
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
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
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    found.append(comp)
    return found[::-1]


def simple_cycles(arcs: list[tuple[int, int]], parts: list) -> list[tuple[int, ...]]:
    """All simple cycles inside ``parts``, as tuples of arc indices in traversal order.

    ``parts`` are disjoint strongly connected vertex sets, and only arcs inside
    one part are followed.  Johnson's algorithm (1975): search a part from its
    least vertex with blocking, then the cyclic components of the rest (a part
    that is a single cycle has none), so each search finds a cycle and the time
    is O((V + E)(C + 1)) for C cycles.
    Parallel arcs yield distinct cycles; the output order is deterministic.
    """
    dst = [d for _, d in arcs]
    out: dict[int, list[int]] = {v: [] for part in parts for v in part}
    for j, (s, _) in enumerate(arcs):
        if s in out:
            out[s].append(j)
    cycles: list[tuple[int, ...]] = []
    todo = [sorted(part, reverse=True) for part in parts]
    while todo:
        part = todo.pop()
        inside = set(part)
        s = part.pop()  # the least vertex: parts are sorted in descending order
        _circuits(out, dst, inside, s, cycles)
        if sum(dst[j] in inside for v in inside for j in out[v]) == len(inside):
            continue  # as many arcs as vertices: the part is one cycle, now found
        local = {v: k for k, v in enumerate(part)}
        succ = [[local[dst[j]] for j in out[v] if dst[j] in local] for v in part]
        todo += [
            sorted((part[k] for k in comp), reverse=True)
            for comp in components(succ)
            if len(comp) > 1 or comp[0] in succ[comp[0]]
        ]
    return cycles


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
