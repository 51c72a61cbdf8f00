"""Shared fixtures and independent probe implementations for the tests."""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import groupoid_spectrum
from corpus import enumerate_validated_simple, random_corpus
from groupoid_spectrum import _kernels, cli
from groupoid_spectrum.cli import main
from groupoid_spectrum.digraph import DiGraph
from groupoid_spectrum.exact import AffineSeq
from groupoid_spectrum.spectrum import PeriodFamily, fell_subgroup_limit


# The documented dual-space counterexample, and the same arrows in the S space.
DUAL_FAMILY = {
    "model": "dyadic",
    "space": "dual",
    "gamma": {
        "q": "0",
        "n": "affine:2*i+1",
        "base": {"branch": "i", "param": "affine:2*i+1"},
    },
    "chi": {"r": "1"},
    "limits": {
        "chi": {"r": "1", "base": {"branch": -1, "param": 0}},
        "omega": {"r": "0", "base": {"branch": -1, "param": 0}},
    },
}
S_FAMILY = {
    "model": "dyadic",
    "space": "S",
    "gamma": DUAL_FAMILY["gamma"],
    "s": {"r": "1"},
    "limits": {
        "s": {"r": "1", "base": {"branch": -1, "param": 0}},
        "t": {"r": "0", "base": {"branch": -1, "param": 0}},
    },
}


def child_env() -> dict:
    """The environment with this package's root first on PYTHONPATH, for child interpreters."""
    package_root = str(Path(groupoid_spectrum.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def run_main(argv: list[str], ascii_stdout: bool = False) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process ``cli.main`` call.

    With ``ascii_stdout``, stdout is an ASCII stream that refuses every other
    character, as a C locale's stdout does, instead of a ``StringIO``.
    """
    buffer = io.BytesIO()
    out = io.TextIOWrapper(buffer, encoding="ascii", errors="strict") if ascii_stdout else io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: help and usage errors
            code = exc.code
    if ascii_stdout:
        out.flush()
        return code, buffer.getvalue().decode("ascii"), err.getvalue()
    return code, out.getvalue(), err.getvalue()


def run_full_parser(argv: list[str], ascii_stdout: bool = False) -> tuple[int, str, str]:
    """``run_main`` with every call parsed by ``_parse``'s full-parser path, then the handler run.

    That path is ``build_parser().parse_args`` and the refusal of a value
    argparse stores as a list.  The reference for ``main``'s dispatch, which
    reads a call in plain form from the command table and passes every
    other call to that path.
    """
    with mock.patch.object(cli, "_read_plain", lambda args: None):
        return run_main(argv, ascii_stdout)


def strict_json(text: str):
    """``json.loads`` that rejects NaN and Infinity, which are not JSON (RFC 8259)."""

    def reject(constant: str):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def graph_two_loops_funnel() -> DiGraph:
    """Loops at a and b, both feeding a common sink t (Hausdorff, certificate (a, b))."""
    return DiGraph.build(
        ["a", "b", "t"],
        [("La", "a", "a"), ("Lb", "b", "b"), ("f", "a", "t"), ("g", "b", "t")],
    )


def corpus_slice():
    """All validated simple graphs on 3 vertices and 300 random ones on up to 7."""
    yield from enumerate_validated_simple(3, 9)
    yield from random_corpus(300, seed=17, max_vertices=7)


def complete_graph(n: int) -> DiGraph:
    """K_n without loops: every cycle has an entry once n >= 3."""
    return DiGraph.build(
        [f"v{i}" for i in range(n)],
        [(f"e{s}_{r}", f"v{s}", f"v{r}") for s in range(n) for r in range(n) if s != r],
    )


def bouquet(m: int) -> DiGraph:
    """m loops on one vertex: each loop is an entry to every other."""
    return DiGraph.build(["a"], [(f"L{i:03d}", "a", "a") for i in range(m)])


def random_dense(seed: int, n: int) -> DiGraph:
    """K_n less n // 2 random arcs, plus loops on n // 2 random vertices; validated.

    Edge ids are shuffled against the edge order, so id order is not input order.
    """
    rng = random.Random(seed)
    arcs = [(s, r) for s in range(n) for r in range(n) if s != r]
    for arc in rng.sample(arcs, n // 2):
        arcs.remove(arc)
    arcs += [(v, v) for v in rng.sample(range(n), n // 2)]
    ids = [f"d{j:02d}" for j in range(len(arcs))]
    rng.shuffle(ids)
    return DiGraph.build([f"v{i}" for i in range(n)], [(i, f"v{s}", f"v{r}") for i, (s, r) in zip(ids, arcs)])


def planted_separated(seed: int, n: int = 160, k: int = 16, chain: int = 30) -> DiGraph:
    """An entry-free graph: k planted cycles, trees on them, a chain and forward cross edges.

    Condition A holds and condition B lists k(k-1)/2 certificates.  Vertex
    names are shuffled and vertices are declared in construction order, so
    name order and declaration order differ; the cross edges run from an
    earlier tree to a later one, so reach sets overlap.
    """
    rng = random.Random(seed)
    names = [f"u{i:04d}" for i in range(n)]
    rng.shuffle(names)
    fresh = iter(names)
    arcs: list[tuple[str, str]] = []
    trees: list[list[str]] = []
    for c in range(k):
        ring = [next(fresh) for _ in range(1 if c % 2 == 0 else 2 + c % 4)]
        arcs += [(ring[j - 1], ring[j]) for j in range(len(ring))]
        trees.append(list(ring))
    tip = trees[0][0]
    for _ in range(chain):
        v = next(fresh)
        arcs.append((tip, v))
        tip = v
    hanging: list[tuple[int, str]] = []
    for v in fresh:
        t = rng.randrange(k)
        arcs.append((rng.choice(trees[t]), v))
        trees[t].append(v)
        hanging.append((t, v))
    for _ in range(n // 10):
        (t1, v1), (t2, v2) = sorted(rng.sample(hanging, 2))
        if t1 < t2:
            arcs.append((v1, v2))
    return DiGraph.build(names, [(f"e{i}", s, r) for i, (s, r) in enumerate(arcs)])


def two_loop_chain(n: int) -> DiGraph:
    """Loops at p and q feeding one chain of n vertices whose names sort before theirs."""
    vertices = ["p", "q"] + [f"c{i:06d}" for i in range(n)]
    edges = [("Lp", "p", "p"), ("Lq", "q", "q"), ("ep", "p", "c000000"), ("eq", "q", "c000000")]
    edges += [(f"h{i:06d}", f"c{i:06d}", f"c{i + 1:06d}") for i in range(n - 1)]
    return DiGraph.build(vertices, edges)


def disjoint_rings(k: int, length: int) -> DiGraph:
    """k disjoint cycles of the given length, and nothing else."""
    return DiGraph.build(
        [f"r{c}_{i}" for c in range(k) for i in range(length)],
        [
            (f"x{c}_{i}", f"r{c}_{i}", f"r{c}_{(i + 1) % length}")
            for c in range(k)
            for i in range(length)
        ],
    )


def graph_single_loop() -> DiGraph:
    return DiGraph.build(["a"], [("La", "a", "a")])


def graph_loop_with_entry() -> DiGraph:
    """Loop La at a with an entry e from b (itself on a loop to stay validated)."""
    return DiGraph.build(
        ["a", "b"], [("La", "a", "a"), ("Lb", "b", "b"), ("e", "b", "a")]
    )


def graph_three_cycle() -> DiGraph:
    return DiGraph.build(
        ["v1", "v2", "v3"],
        [("c1", "v1", "v2"), ("c2", "v2", "v3"), ("c3", "v3", "v1")],
    )


def graph_common_ancestor() -> DiGraph:
    """Loops at a and b plus a vertex w feeding both (condition A fails here)."""
    return DiGraph.build(
        ["a", "b", "w"],
        [
            ("La", "a", "a"),
            ("Lb", "b", "b"),
            ("Lw", "w", "w"),
            ("h1", "w", "a"),
            ("h2", "w", "b"),
        ],
    )


def brute_reach(g: DiGraph) -> dict[str, frozenset[str]]:
    """Reachability by repeated relational composition (a third route)."""
    pairs = {(v, v) for v in g.vertices}
    pairs |= {(e.src, e.rng) for e in g.edges}
    while True:
        nxt = set(pairs)
        for (x, y) in pairs:
            for (u, w) in pairs:
                if y == u:
                    nxt.add((x, w))
        if nxt == pairs:
            break
        pairs = nxt
    return {
        v: frozenset(u for u in g.vertices if (v, u) in pairs) for v in g.vertices
    }


def out_lists(g: DiGraph) -> list[list[int]]:
    """The kernel's out-lists of g: per vertex index, the indices of its out-edges."""
    out: list[list[int]] = [[] for _ in g.names]
    for j, s in enumerate(g.src):
        out[s].append(j)
    return out


def kernel_components(g: DiGraph) -> dict[str, int]:
    """The kernel's strongly connected components with a cycle: the component of each vertex on a cycle."""
    found = _kernels.components(out_lists(g), g.dst)
    of = {g.names[v]: c for c, comp in enumerate(found) for v in comp}
    assert len(of) == sum(map(len, found))  # no vertex in two components
    return of


def kernel_cycles(n: int, arcs: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """The kernel's cycles of the (tail, head) ``arcs`` on n vertices, ranked by position.

    The kernel's arrays: each arc's head and tail, per vertex the ranks of
    its in-arcs, ascending, and the cyclic components.
    """
    tail, head = [s for s, _ in arcs], [d for _, d in arcs]
    out: list[list[int]] = [[] for _ in range(n)]
    into: list[list[int]] = [[] for _ in range(n)]
    for r, (s, d) in enumerate(arcs):
        out[s].append(r)
        into[d].append(r)
    return _kernels.simple_cycles(head, tail, into, _kernels.components(out, head))


def graph_kernel_cycles(g: DiGraph) -> list[tuple[int, ...]]:
    """The kernel's cycles of g, with its edges ranked by index: edge indices in path order."""
    return kernel_cycles(len(g.names), list(zip(g.src, g.dst)))


def assert_canonical(arcs: list[tuple[int, int]], cycles: list[tuple[int, ...]]) -> None:
    """Each cycle of the (tail, head) ``arcs`` comes out once, in path order, from its least rank.

    Path order: each arc's tail is the next arc's head, and the last arc's
    tail the first arc's head; a simple cycle visits each head once.
    """
    assert len(set(cycles)) == len(cycles)
    for c in cycles:
        heads = [arcs[r][1] for r in c]
        assert [arcs[r][0] for r in c] == heads[1:] + heads[:1], c
        assert len(set(heads)) == len(heads), c
        assert c[0] == min(c), c


def assert_components_match_reach(g: DiGraph, reach: dict[str, frozenset[str]]) -> None:
    """The kernel's strongly connected components with a cycle agree with a reachability table."""
    of = kernel_components(g)
    loops = {e.src for e in g.edges if e.src == e.rng}
    for v in g.vertices:
        on_cycle = v in loops or any(u != v and v in reach[u] for u in reach[v])
        assert (v in of) == on_cycle, v
        for u in of if on_cycle else ():
            assert (of[v] == of[u]) == (u in reach[v] and v in reach[u]), (v, u)
            if u in reach[v]:
                assert of[v] <= of[u], (v, u)  # ids are topological


def window_fell_probe(family: PeriodFamily, window: int):
    """Direct Fell-limit probe on {-window..window}.

    For each x, membership in p_i Z must stabilize (eventually-in equals
    infinitely-often-in); returns the stable membership set, or None when
    some membership oscillates.
    """

    def member(p: int, x: int) -> bool:
        return x == 0 if p == 0 else x % p == 0

    tail = family.tail
    start = len(family.transient)
    stable: set[int] = set()
    for x in range(-window, window + 1):
        if isinstance(tail, AffineSeq):
            if tail.a == 0:
                values = {member(tail.b, x)}
            else:
                # growing periods: membership is stable past the last index
                # where p_i <= |x|, so sample a few points beyond it
                horizon = start + max(0, (abs(x) - tail.b) // tail.a + 2)
                values = {member(family.period_at(i), x) for i in range(horizon, horizon + 4)}
        else:
            values = {member(p, x) for p in tail}
        if len(values) != 1:
            return None
        if values.pop():
            stable.add(x)
    return frozenset(stable)


def fell_probe_agrees(family: PeriodFamily, window: int) -> bool:
    limit = fell_subgroup_limit(family)
    probe = window_fell_probe(family, window)
    if not limit.convergent:
        return probe is None
    if probe is None:
        return False
    p = limit.period
    expected = frozenset(
        x for x in range(-window, window + 1) if (x == 0 if p == 0 else x % p == 0)
    )
    return probe == expected
