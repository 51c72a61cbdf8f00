"""Verdict references that do not come from the decider, and report checks.

* Closed forms for complete digraphs and bouquets of loops.
* A cycle and entry count for small multigraphs that walks vertex orderings
  instead of searching paths.
* A structural condition A: a graph has no cycle with an entry iff every
  vertex in a nontrivial strongly connected component or on a loop has
  in-degree 1.  On validated graphs condition B follows from A, so the
  Hausdorff verdict equals it.

Reports of ``graph-analyze`` can run to tens of megabytes; they are summarised
by counting keys within their sections instead of decoding them whole, so
checking a report takes a small fraction of the memory making it took.
"""

from __future__ import annotations

import json
import math
import re
from itertools import combinations, permutations

Edges = list[tuple[str, str, str]]  # (id, src, rng)


def complete_counts(n: int) -> tuple[int, int]:
    """(cycles, entries) of the complete digraph K_n without loops."""
    cycles = sum(math.comb(n, k) * math.factorial(k - 1) for k in range(2, n + 1))
    entries = (n - 2) * sum(math.perm(n, k) for k in range(2, n + 1))
    return cycles, entries


def bouquet_counts(m: int) -> tuple[int, int]:
    """(cycles, entries) of m loops on one vertex: each loop enters every other."""
    return m, m * (m - 1)


def count_cycles_entries(vertices: list[str], edges: Edges) -> tuple[int, int]:
    """(cycles, entries) by summing over cyclic vertex orderings.

    A cyclic ordering of a vertex set S carries prod(multiplicities) simple
    cycles, and each has sum(in-degree over S) - |S| entries.
    """
    mult: dict[tuple[str, str], int] = {}
    indeg = dict.fromkeys(vertices, 0)
    for _, s, r in edges:
        mult[(s, r)] = mult.get((s, r), 0) + 1
        indeg[r] += 1
    cycles = entries = 0
    for size in range(1, len(vertices) + 1):
        for subset in combinations(vertices, size):
            inside = sum(indeg[v] for v in subset) - size
            for rest in permutations(subset[1:]):
                ring = (subset[0], *rest, subset[0])
                count = math.prod(mult.get(step, 0) for step in zip(ring, ring[1:]))
                cycles += count
                entries += count * inside
    return cycles, entries


def validated(vertices: list[str], edges: Edges) -> bool:
    return {r for _, _, r in edges} >= set(vertices)


def _cyclic_vertex_groups(vertices: list[str], edges: Edges) -> list[list[str]]:
    """Strongly connected components that carry a cycle (iterative Tarjan)."""
    succ: dict[str, list[str]] = {v: [] for v in vertices}
    loops = set()
    for _, s, r in edges:
        succ[s].append(r)
        if s == r:
            loops.add(s)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    groups = []
    for root in vertices:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = len(index)
                stack.append(v)
                on_stack.add(v)
            if i < len(succ[v]):
                work.append((v, i + 1))
                w = succ[v][i]
                if w not in index:
                    work.append((w, 0))
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
                continue
            if low[v] == index[v]:
                group = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    group.append(w)
                    if w == v:
                        break
                if len(group) > 1 or v in loops:
                    groups.append(group)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return groups


def structural_condition_a(vertices: list[str], edges: Edges) -> bool:
    indeg = dict.fromkeys(vertices, 0)
    for _, _, r in edges:
        indeg[r] += 1
    return all(indeg[v] == 1 for group in _cyclic_vertex_groups(vertices, edges) for v in group)


def cyclic_components(vertices: list[str], edges: Edges) -> int:
    """Number of cycles of an entry-free graph: each cyclic component is one."""
    return len(_cyclic_vertex_groups(vertices, edges))


# ---------------------------------------------------------------------------
# report checks


def _after(text: str, key: str, pos: int = 0) -> int:
    """Index just past the first ``"key":`` at or after ``pos``."""
    return re.compile(rf'"{key}":\s*').search(text, pos).end()


def summarize_analyze(text: str) -> dict:
    """Counts and verdict of a ``graph-analyze --json`` report."""
    if re.search(r'\n  "validated": false', text):
        return {"validated": False}
    a = _after(text, "condition_a")
    b = _after(text, "condition_b", a)
    c = _after(text, "condition_c", b)
    cycles, _ = json.JSONDecoder().raw_decode(text, _after(text, "cycles", a))
    entries = _after(text, "entries", a)
    entries_end = text.find('"stabilizer_discontinuity":', entries, b)
    certificates = _after(text, "certificates", b)
    certificates_end = text.find('"refutation":', certificates, c)
    return {
        "validated": True,
        "cycles": len(cycles),
        "entries": text.count('"entry":', entries, b if entries_end < 0 else entries_end),
        "b_certificates": text.count('"u":', certificates, c if certificates_end < 0 else certificates_end),
        "hausdorff": re.search(r'\n  "hausdorff": true\n', text) is not None,
    }


def check(kind: str, expect: dict, code: int, text: str) -> str | None:
    """None when the report matches the reference, else what differs."""
    want_code = expect.get("exit", 0)
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    if kind == "graph-analyze":
        got = summarize_analyze(text)
        wrong = {k: (got.get(k), v) for k, v in expect.items() if k != "exit" and got.get(k) != v}
        return f"report differs from reference (got, want): {wrong}" if wrong else None
    if kind == "invalid":
        return None if summarize_analyze(text) == {"validated": False} else "expected a validation failure"
    report = json.loads(text)
    if kind == "graph-orbits":
        ok = report["refused"] == expect["refused"] and (
            expect["refused"] or report["count"] == expect["count"]
        )
    elif kind == "graph-equiv":
        ok = report["shift_equivalent"] == expect["equivalent"]
    elif kind == "verify-eq3":
        ok = report["all_equal"] and report["confirmations"] == expect["n_max"] + 1
    elif kind == "demo-c-failure":
        ok = report["verdict"] == "condition (c) VIOLATED" and len(report["rows"]) == expect["n_max"] + 1
    elif kind == "conj-test":
        ok = report["pass"] and report["index_preserved"]
    elif kind == "spectrum":
        norm = math.sqrt(sum(c * c for c in expect["v"]))
        got = report["invariants"]
        ok = got["k"] == expect["k"] and math.isclose(float(got["norm"]), norm, rel_tol=1e-9)
    elif kind == "check-family":
        ok = report["outcome"] == expect["outcome"] and (
            "holds" not in expect or report["verdict"]["holds"] == expect["holds"]
        )
    elif kind == "truncate":
        ok = report["outcome"] == "numeric-probe" and report["row"]["index"] == expect["index"]
    else:
        raise ValueError(f"unknown operation kind {kind!r}")
    return None if ok else f"{kind} report differs from reference: {expect}"
