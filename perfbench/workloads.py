"""Seeded input generators for the four benchmark workloads.

Every generator here is independent of the package under test: graphs and
family files are built from the seed alone, written to disk, and the package
only ever sees those files.  Each generated operation carries the facts the
reference in ``reference.py`` expects of its report, derived from how the
input was constructed, never from the decider.

Costs are kept nearly independent of the seed: sizes, cycle counts and edge
densities are fixed per input slot and only the placement is random, so the
per-pass time moves with the program, not with the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations, product
from pathlib import Path

import reference

# Each slot: (vertices, planted cycles, chain length).  The slots form cost
# classes so that the median and the 75th percentile of a pass each fall in
# the middle of one class, not on a boundary between classes that the seed
# or the machine could move: 9 cheap graphs, 5 with 20 cycles, 5 with 900
# vertices and 25 cycles, and two large ones up to 2,000 vertices where the
# quadratic closure and the ancestor table of condition B dominate.
SPARSE_SLOTS = (
    tuple((700, 4, 100 + 10 * i) for i in range(9))
    + ((700, 20, 150),) * 5
    + ((900, 25, 250),) * 5
    + ((1500, 10, 600), (2000, 5, 1000))
)
BOUQUETS = (5, 10, 20, 30, 45, 60, 80, 100, 125, 150)
COMPLETE = (4, 5, 6, 7)
DENSE_RANDOM = 26  # random dense graphs on 4 to 6 vertices
CORPUS_RANDOM = 600  # random small multigraphs added to the exhaustive corpus
# Each cli.main call builds its argument parser, about 3 ms against well under
# 1 ms of analysis, so a pass takes every third graph of the exhaustive
# corpus (which third follows the seed) to keep two passes within one run.
CORPUS_STRIDE = 3


@dataclass
class Op:
    """One operation: a CLI argv and the facts its report must show."""

    argv: list[str]
    kind: str
    expect: dict = field(default_factory=dict)


@dataclass
class Graph:
    name: str
    vertices: list[str]
    edges: list[tuple[str, str, str]]  # (id, src, rng)

    def text(self) -> str:
        lines = [f"v {v}" for v in self.vertices]
        lines += [f"e {eid} {s} {r}" for eid, s, r in self.edges]
        return "\n".join(lines) + "\n"


def _graph_from_arcs(name: str, n: int, arcs: list[tuple[int, int]]) -> Graph:
    seen: dict[tuple[int, int], int] = {}
    edges = []
    for s, r in arcs:
        k = seen.get((s, r), 0)
        seen[(s, r)] = k + 1
        edges.append((f"e{s}_{r}" + (f"x{k}" if k else ""), f"v{s}", f"v{r}"))
    return Graph(name, [f"v{i}" for i in range(n)], edges)


def complete_graph(n: int) -> Graph:
    return _graph_from_arcs(f"k{n}", n, [(s, r) for s in range(n) for r in range(n) if s != r])


def bouquet(m: int) -> Graph:
    return Graph(f"bouquet{m}", ["a"], [(f"L{i:03d}", "a", "a") for i in range(m)])


def random_dense(rng: random.Random, name: str, n: int) -> Graph:
    """K_n less n//2 random arcs, plus loops on n//2 random vertices; validated.

    Every arc of K_n is alike under its symmetries, so the cycle and entry
    counts, and with them the cost, vary little from seed to seed.
    """
    arcs = [(s, r) for s in range(n) for r in range(n) if s != r]
    for arc in rng.sample(arcs, n // 2):
        arcs.remove(arc)
    arcs += [(v, v) for v in rng.sample(range(n), n // 2)]
    return _graph_from_arcs(name, n, sorted(arcs))


def separated_sparse(rng: random.Random, name: str, n: int, k: int, chain: int) -> tuple[Graph, int]:
    """Entry-free graph: k planted cycles, trees on them, a chain, forward cross edges.

    Every cycle vertex has exactly one in-edge (its cycle predecessor); tree
    and chain edges point away from the cycles and cross edges only run from
    an earlier tree to a later one, so no new cycle and no entry can appear.
    Returns the graph and its planted cycle count.
    """
    names = [f"u{i:04d}" for i in range(n)]
    rng.shuffle(names)
    fresh = iter(names)
    edges: list[tuple[str, str]] = []
    trees: list[list[str]] = []
    for c in range(k):
        length = 1 if c % 2 == 0 else 2 + c % 4
        ring = [next(fresh) for _ in range(length)]
        edges += [(ring[j], ring[(j + 1) % length]) for j in range(length)]
        trees.append(list(ring))
    tip = trees[0][0]
    for _ in range(chain):
        v = next(fresh)
        edges.append((tip, v))
        tip = v
    hanging: list[tuple[int, str]] = []
    for v in fresh:
        t = rng.randrange(k)
        edges.append((rng.choice(trees[t]), v))
        trees[t].append(v)
        hanging.append((t, v))
    for _ in range(n // 10):
        (t1, v1), (t2, v2) = sorted(rng.sample(hanging, 2))
        if t1 < t2:
            edges.append((v1, v2))
    graph = Graph(name, sorted(names), [(f"e{i}", s, r) for i, (s, r) in enumerate(edges)])
    return graph, k


def validated_simple(n: int, max_edges: int) -> list[list[tuple[int, int]]]:
    """Arc lists of all labeled validated simple digraphs (loops allowed).

    Validated means every vertex has an in-edge, so each graph is a choice of
    a nonempty set of in-arcs per vertex within the edge budget.
    """
    per_vertex = [
        [group for size in range(1, n + 1) for group in combinations([(s, v) for s in range(n)], size)]
        for v in range(n)
    ]
    out = []
    for choice in product(*per_vertex):
        if sum(len(group) for group in choice) <= max_edges:
            out.append([arc for group in choice for arc in group])
    return out


def random_multigraph(rng: random.Random, name: str, n: int) -> Graph:
    """An in-arc per vertex plus three random arcs, parallels and loops allowed."""
    arcs = [(rng.randrange(n), v) for v in range(n)]
    arcs += [(rng.randrange(n), rng.randrange(n)) for _ in range(3)]
    return _graph_from_arcs(name, n, sorted(arcs))


# ---------------------------------------------------------------------------
# workloads: each returns (files to write, operations)


def _analyze(path: str, **expect) -> Op:
    return Op(["graph-analyze", path, "--json"], "graph-analyze", expect)


def entry_dense(seed: int, workdir: str) -> tuple[dict[str, str], list[Op]]:
    rng = random.Random(seed)
    files, ops = {}, []
    fixed = [(complete_graph(n), reference.complete_counts(n)) for n in COMPLETE]
    fixed += [(bouquet(m), reference.bouquet_counts(m)) for m in BOUQUETS]
    dense = [random_dense(rng, f"dense{i:02d}", 4 + i % 3) for i in range(DENSE_RANDOM)]
    for g, counts in fixed + [(g, None) for g in dense]:
        path = f"{workdir}/{g.name}.txt"
        files[path] = g.text()
        if counts is None:
            counts = reference.count_cycles_entries(g.vertices, g.edges)
        cycles, entries = counts
        ops.append(_analyze(path, cycles=cycles, entries=entries, hausdorff=entries == 0))
    return files, ops


def sparse(seed: int, workdir: str) -> tuple[dict[str, str], list[Op]]:
    rng = random.Random(seed)
    files, ops = {}, []
    for i, (n, k, chain) in enumerate(SPARSE_SLOTS):
        g, cycles = separated_sparse(rng, f"sparse{i:02d}", n, k, chain)
        path = f"{workdir}/{g.name}.txt"
        files[path] = g.text()
        ops.append(
            _analyze(path, cycles=cycles, entries=0, b_certificates=cycles * (cycles - 1) // 2, hausdorff=True)
        )
    return files, ops


def corpus_small(seed: int, workdir: str) -> tuple[dict[str, str], list[Op]]:
    rng = random.Random(seed)
    corpus = validated_simple(4, 6)
    graphs = [
        _graph_from_arcs(f"s{i:04d}", 4, corpus[i])
        for i in range(seed % CORPUS_STRIDE, len(corpus), CORPUS_STRIDE)
    ]
    graphs += [random_multigraph(rng, f"r{i:04d}", 1 + i % 5) for i in range(CORPUS_RANDOM)]
    files, ops = {}, []
    for g in graphs:
        path = f"{workdir}/{g.name}.txt"
        files[path] = g.text()
        ops.append(_analyze(path, hausdorff=reference.structural_condition_a(g.vertices, g.edges)))
    return files, ops


DUAL_FAMILY = {
    "model": "dyadic",
    "space": "dual",
    "gamma": {"q": "0", "n": "affine:2*i+1", "base": {"branch": "i", "param": "affine:2*i+1"}},
    "chi": {"r": "1"},
    "limits": {
        "chi": {"r": "1", "base": {"branch": -1, "param": 0}},
        "omega": {"r": "0", "base": {"branch": -1, "param": 0}},
    },
}


def _dual_family(r: str) -> dict:
    """The documented counterexample with a constant character parameter r.

    The transported parameters 2**-(2i+1) * r tend to 0, so for r != 0 both
    limits exist in one fiber and differ: condition (c) fails.
    """
    obj = json.loads(json.dumps(DUAL_FAMILY))
    obj["chi"]["r"] = r
    obj["limits"]["chi"]["r"] = r
    return obj


def _s_family(r: str) -> dict:
    """S-space family s_i = r along the same arrows.

    The transported elements 2**(2i+1) * r are never eventually constant for
    r != 0, so the premises fail; for r == 0 everything is constant 0 and the
    condition holds.
    """
    obj = {k: v for k, v in DUAL_FAMILY.items() if k not in ("chi", "limits")}
    obj["space"] = "S"
    obj["s"] = {"r": r}
    obj["limits"] = {
        "s": {"r": r, "base": {"branch": -1, "param": 0}},
        "t": {"r": "0", "base": {"branch": -1, "param": 0}},
    }
    return obj


def cli_mix(seed: int, workdir: str) -> tuple[dict[str, str], list[Op]]:
    """Every subcommand, each run as a fresh process by the harness."""
    rng = random.Random(seed)
    files: dict[str, str] = {}
    ops: list[Op] = []

    def put(name: str, text: str) -> str:
        path = f"{workdir}/{name}"
        files[path] = text
        return path

    # graph commands on small graphs: one entry-free, one dense, one random
    free, _ = separated_sparse(rng, "free", 24, 3, 4)
    dense = random_dense(rng, "dense", 5)
    mixed = random_multigraph(rng, "mixed", 5)
    for g in (free, dense, mixed):
        path = put(f"{g.name}.txt", g.text())
        a = reference.structural_condition_a(g.vertices, g.edges)
        ops.append(_analyze(path, hausdorff=a))
        reverse = [(eid, r, s) for eid, s, r in g.edges]
        if reference.validated(g.vertices, reverse):
            ops.append(Op(["graph-analyze", path, "--transpose", "--json"], "graph-analyze",
                          {"hausdorff": reference.structural_condition_a(g.vertices, reverse)}))
        else:
            ops.append(Op(["graph-analyze", path, "--transpose", "--json"], "invalid", {"exit": 2}))
        count = reference.cyclic_components(g.vertices, g.edges) if a else None
        ops.append(Op(["graph-orbits", path, "--json"], "graph-orbits", {"refused": not a, "count": count}))
    # the 2-cycle q,p and the loop Lc; t leaves the 2-cycle, so t:q,p is
    # shift equivalent to :q,p and :Lc is not
    equiv = put("equiv.txt", Graph("equiv", ["a", "b", "c", "d"], [
        ("p", "a", "b"), ("q", "b", "a"), ("Lc", "c", "c"), ("t", "a", "d")]).text())
    for y, same in (("t:q,p", True), (":Lc", False)):
        ops.append(Op(["graph-equiv", equiv, "--x", ":q,p", "--y", y, "--json"], "graph-equiv", {"equivalent": same}))

    n_max = rng.randint(15, 25)
    ops.append(Op(["model-green", "verify-eq3", "--n-max", str(n_max), "--json"], "verify-eq3", {"n_max": n_max}))
    n_max = rng.randint(8, 12)
    ops.append(Op(["model-dyadic", "demo-c-failure", "--n-max", str(n_max), "--json"], "demo-c-failure", {"n_max": n_max}))

    for trial_seed in (rng.randrange(10**6), rng.randrange(10**6)):
        ops.append(Op(["model-so3", "conj-test", "--trials", "1000", "--seed", str(trial_seed), "--json"], "conj-test", {}))
    for _ in range(2):
        v = [rng.randint(-9, 9) or 1 for _ in range(3)]
        kk = rng.randint(-5, 5)
        ops.append(
            Op(["model-so3", "spectrum", "--v=" + ",".join(map(str, v)), f"--k={kk}", "--json"], "spectrum",
               {"v": v, "k": kk})
        )

    r = rng.choice(["3/8", "5", "-1/4", "7/2", "9/16"])
    dual = put("dual.json", json.dumps(_dual_family(r)))
    s_div = put("s_divergent.json", json.dumps(_s_family(r)))
    s_zero = put("s_zero.json", json.dumps(_s_family("0")))
    ops.append(Op(["check-family", dual, "--json"], "check-family", {"outcome": "verdict", "holds": False}))
    ops.append(Op(["check-family", dual, "--tests", "1,1/3,5/2", "--json"], "check-family",
                  {"outcome": "verdict", "holds": False}))
    ops.append(Op(["check-family", s_div, "--json"], "check-family", {"outcome": "hypothesis-failure"}))
    ops.append(Op(["check-family", s_zero, "--json"], "check-family", {"outcome": "verdict", "holds": True}))
    ops.append(Op(["model-dyadic", "check-c-on-s", "--family", s_div, "--json"], "check-family",
                  {"outcome": "hypothesis-failure"}))
    ops.append(Op(["model-dyadic", "check-c-on-s", "--family", s_zero, "--json"], "check-family",
                  {"outcome": "verdict", "holds": True}))
    for exponent in (2, 3, 5, 7):
        index = rng.randint(10 ** (exponent - 1), 10**exponent)
        ops.append(Op(["check-family", dual, "--truncate", str(index), "--json"], "truncate", {"index": index}))
    # 2.0**(2i+1) must stay finite on the S side, so the index stays below 511
    index = rng.randint(20, 500)
    ops.append(Op(["check-family", s_zero, "--truncate", str(index), "--json"], "truncate", {"index": index}))
    return files, ops


def known_defects(workdir: str) -> tuple[dict[str, str], list[list[str]]]:
    """Documented inputs that exit 1 with a traceback instead of 2 with a message.

    The benchmark's operations must not fail, so these stay out of the timed
    passes; ``cli-mix`` runs them once per run and reports their exit codes,
    so the defects stay visible until fixed.
    """
    two_term = _dual_family("1")
    two_term["chi"]["r"] = [1, -1, 0, "1"]  # 2**-i + 1 against n = 2i+1: outside the catalog
    files = {f"{workdir}/defect_two_term.json": json.dumps(two_term),
             f"{workdir}/defect_s.json": json.dumps(_s_family("0"))}
    argvs = [
        ["check-family", f"{workdir}/defect_two_term.json", "--json"],
        # 2.0**(2i+1) overflows a float once the index passes 511
        ["check-family", f"{workdir}/defect_s.json", "--truncate", "10000000", "--json"],
    ]
    return files, argvs


WORKLOADS = {
    "entry-dense": entry_dense,
    "separated-sparse": sparse,
    "corpus-small": corpus_small,
    "cli-mix": cli_mix,
}


def write_inputs(files: dict[str, str]) -> None:
    for path, text in files.items():
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
