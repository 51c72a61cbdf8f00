"""Graph kernel: simple cycle enumeration over dense integer indices.

Vertices and arcs are dense integer indices; an arc j is the pair
(src[j], dst[j]) and a walk follows arcs src -> dst.  Only graphs where
condition A fails reach this kernel: on entry-free graphs the cycles are read
off the strongly connected components instead.
"""

from __future__ import annotations

BACKEND = "python"

__all__ = ["BACKEND", "simple_cycles"]


def simple_cycles(n: int, arcs: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """All simple cycles, as tuples of arc indices in traversal order.

    Each cycle is reported once, anchored at its least vertex; parallel arcs
    yield distinct cycles.  Output order is deterministic: anchors ascending,
    then depth-first with arcs taken in index order.
    """
    out_arcs: list[list[int]] = [[] for _ in range(n)]
    for j, (s, _) in enumerate(arcs):
        out_arcs[s].append(j)

    cycles: list[tuple[int, ...]] = []
    for v0 in range(n):
        path: list[int] = []
        onpath = 1 << v0
        frames: list[list[int]] = [[v0, 0]]
        while frames:
            frame = frames[-1]
            v, pos = frame
            if pos < len(out_arcs[v]):
                frame[1] = pos + 1
                j = out_arcs[v][pos]
                w = arcs[j][1]
                if w == v0:
                    cycles.append(tuple(path) + (j,))
                elif w > v0 and not (onpath >> w) & 1:
                    # only vertices above the anchor keep each cycle unique
                    path.append(j)
                    onpath |= 1 << w
                    frames.append([w, 0])
            else:
                frames.pop()
                if path:
                    j = path.pop()
                    onpath &= ~(1 << arcs[j][1])
    return cycles
