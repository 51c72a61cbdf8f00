"""Graph kernels over dense integer indices: cyclic components and simple cycles.

Vertex v has the arcs ``out[v]``, and arc a runs to ``head[a]``.
"""

from __future__ import annotations

BACKEND = "python"

__all__ = ["BACKEND", "components", "simple_cycles"]


def components(out: list[list[int]], head, roots=None, index=None) -> list[list[int]]:
    """The strongly connected components with a cycle, sources first (Tarjan 1972, iterative).

    A component has a cycle when it has more than one vertex or a loop, an
    arc that does not lower its tail's link.  The search starts from each of
    ``roots`` (default: every vertex) whose ``index`` is -1 (default: every
    vertex).  A vertex whose component is complete gets the index n =
    ``len(out)``, above every visit number, so it never lowers a link: a
    caller leaves a vertex out by giving it that index.
    """
    n = len(out)
    index = [-1] * n if index is None else index  # visit number, then n
    # the lowest visit number reached; a search from given roots visits few vertices
    low: list[int] | dict[int, int] = [0] * n if roots is None else {}
    looped = set()
    stack: list[int] = []
    found: list[list[int]] = []  # reverse topological order
    counter = 0
    for root in range(n) if roots is None else roots:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work, its = [root], [iter(out[root])]  # the search path, and the arcs left at each vertex
        while work:
            v = work[-1]
            for a in its[-1]:
                w = head[a]
                x = index[w]
                if x < 0:
                    if not out[w]:  # a component without a cycle
                        index[w] = n
                        continue
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append(w)
                    its.append(iter(out[w]))
                    break
                if x < low[v]:
                    low[v] = x
                elif w == v:
                    looped.add(v)
            else:
                work.pop()
                its.pop()
                if work:
                    u = work[-1]
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
                    if len(comp) > 1 or v in looped:
                        found.append(comp)
    return found[::-1]


def simple_cycles(head, out: list[list[int]], parts: list[list[int]]) -> list[tuple[int, ...]]:
    """All simple cycles in ``parts``, the ``components``, as tuples of arcs in traversal order.

    Johnson's algorithm (1975): search each part with blocking from the
    vertex its component search reached first, then the cyclic components
    of the rest, over the same lists with every other vertex left out.  Each
    search finds a cycle, so the time is O((V + E)(C + 1)) for C cycles.
    Parallel arcs yield distinct cycles; the output order is deterministic.
    """
    index = [len(out)] * len(out)  # components visits only the vertices reset to -1
    todo = [list(part) for part in parts]
    cycles: list[tuple[int, ...]] = []
    while todo:
        part = todo.pop()
        s = part.pop()  # a component's last vertex is the one its search reached first
        _circuits(out, head, {s, *part}, s, cycles)
        if part:
            for v in part:
                index[v] = -1
            todo += components(out, head, part, index)
    return cycles


def _circuits(out, head, inside: set[int], s: int, cycles: list) -> None:
    """Johnson's blocked search for the cycles through ``s`` and ``inside``."""
    blocked = {s}
    waiting: dict[int, set[int]] = {}  # w -> vertices to unblock with w
    path: list[int] = []
    frames = [[s, iter(out[s]), False]]  # vertex, arcs left, found a cycle
    while frames:
        frame = frames[-1]
        for j in frame[1]:
            w = head[j]
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
                    waiting.setdefault(head[j], set()).add(v)
            if frames:
                path.pop()
                frames[-1][2] |= found
