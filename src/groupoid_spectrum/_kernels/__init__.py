"""Graph kernels over dense integer indices: cyclic components and simple cycles.

Vertex v has the arcs ``out[v]``, and arc a runs to ``head[a]``.
"""

from __future__ import annotations

BACKEND = "python"

__all__ = ["BACKEND", "components", "simple_cycles"]


def components(out: list[list[int]], head) -> list[list[int]]:
    """The strongly connected components with a cycle, sources first (Tarjan 1972, iterative).

    A component has a cycle when it has more than one vertex or a loop, an
    arc that does not lower its tail's link.  A vertex whose component is
    complete gets the index n = ``len(out)``, above every visit number, so
    it never lowers a link.
    """
    n = len(out)
    index = [-1] * n  # visit number, then n
    low = [0] * n  # the lowest visit number reached
    looped = set()
    stack: list[int] = []
    found: list[list[int]] = []  # reverse topological order
    counter = 0
    for root in range(n):
        if index[root] >= 0 or not out[root]:  # done, or a component without a cycle
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


def simple_cycles(head, tail, into: list[list[int]], parts: list[list[int]]) -> list[tuple[int, ...]]:
    """Each simple cycle in ``parts``, the ``components``, once: its arcs in path order, the least first.

    Arc r runs from ``tail[r]`` to ``head[r]``; ``into[v]`` lists the arcs
    into v, ascending.  Johnson's search (1975) from each arc r in a part,
    in order, walks back from ``tail[r]`` over the arcs above r; each walk
    to ``head[r]`` is a cycle.  Searches that find none add up their work,
    and past the cost of a split the parts become the cyclic components of
    the arcs from r on, so the time is O((V + E)(C + 1)) for C cycles.
    """
    ins = [()] * len(into)  # per vertex, the arcs into it not yet passed, descending
    for part in parts:
        for v in part:
            ins[v] = into[v][::-1]
    waste, cost, cycles = 0, len(head) + len(into), []  # cost: of a split
    for r, h in enumerate(head):
        while ins[h] and ins[h][-1] == r:  # r lies in a part, and every arc left is above it
            t = tail[r]
            if t == h:
                cycles.append((r,))
            elif ins[t]:
                waste += _circuits(ins, tail, r, h, t, cycles, cost - waste)
                if waste > cost:  # the search stopped: split, and search from r again
                    _split(ins, tail)
                    waste = 0
                    continue
            ins[h].pop()
            break
    return cycles


def _split(ins, tail) -> None:
    """Keep in ``ins`` only the arcs inside the cyclic components of the arcs it holds."""
    label = [-1] * len(ins)
    for k, part in enumerate(components(ins, tail)):  # the arcs reversed: the same components
        for v in part:
            label[v] = k
    for v, k in enumerate(label):
        if ins[v]:
            ins[v] = [e for e in ins[v] if label[tail[e]] == k] if k >= 0 else ()


def _circuits(ins, tail, r: int, h: int, t: int, cycles: list, budget: int) -> int:
    """Johnson's blocked search back from ``t`` to ``h``: the cycles whose least arc is r.

    Returns 0 if it found one, else its work, the vertices it pushed and
    their in-degrees; it stops once that passes ``budget``.
    """
    blocked, waiting = {h, t}, {}  # waiting: w -> the vertices to unblock with w
    path, found, work = [r], len(cycles), 1 + len(ins[t])
    frames = [(t, iter(ins[t]), found)]  # vertex, arcs left, cycles before it
    while frames:
        v, arcs, before = frames[-1]
        for e in arcs:
            w = tail[e]
            if w == h:
                cycles.append((*path, e))
            elif w not in blocked:
                work += 1 + len(ins[w])
                if work > budget and len(cycles) == found:
                    return work
                path.append(e)
                blocked.add(w)
                frames.append((w, iter(ins[w]), len(cycles)))
                break
        else:
            frames.pop()
            path.pop()
            if len(cycles) > before:  # v's search found a cycle
                stack = [v]
                while stack:
                    u = stack.pop()
                    if u in blocked:
                        blocked.discard(u)
                        stack += waiting.pop(u, ())
            else:
                for e in ins[v]:
                    waiting.setdefault(tail[e], set()).add(v)
    return 0 if len(cycles) > found else work
