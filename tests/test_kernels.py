"""The graph kernels: Johnson's search rooted at arcs, each cycle once from its least rank."""

import random

import helpers
from corpus import random_validated_graph
from groupoid_spectrum import _kernels
from groupoid_spectrum.digraph import CycleRep, DiGraph
from helpers import assert_canonical, kernel_cycles
from oracle import naive_simple_cycles


def arc_cycles(arcs: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """The kernel's cycles of (tail, head) arcs ranked by position, checked canonical."""
    cycles = kernel_cycles(1 + max(max(arc) for arc in arcs), arcs)
    assert_canonical(arcs, cycles)
    return cycles


def kernel_cycle_ids(g: DiGraph) -> list[tuple[str, ...]]:
    cycles = helpers.graph_kernel_cycles(g)
    assert_canonical(list(zip(g.src, g.dst)), cycles)
    return [CycleRep(tuple(g.edges.at(arcs))).edge_ids() for arcs in cycles]


def canonical_cycles(arcs: list[tuple[int, int]]) -> set[tuple[int, ...]]:
    """Every simple cycle by definition: grown back from each arc over the arcs of higher rank."""
    found = set()

    def grow(path: list[int], heads: set[int]) -> None:
        tail = arcs[path[-1]][0]
        if tail == arcs[path[0]][1]:
            found.add(tuple(path))
        elif tail not in heads:
            for r, (_, d) in enumerate(arcs):
                if d == tail and r > path[0]:
                    grow(path + [r], heads | {tail})

    for r in range(len(arcs)):
        grow([r], {arcs[r][1]})
    return found


def one_component_multigraph(rng: random.Random) -> DiGraph:
    """A ring through every vertex plus random chords, loops and parallel arcs."""
    n = rng.randint(1, 6)
    vs = [f"v{i}" for i in range(n)]
    order = rng.sample(vs, n)
    arcs = [(order[i], order[(i + 1) % n]) for i in range(n)]
    arcs += [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(0, 7))]
    arcs += rng.sample(arcs, rng.randint(0, min(3, len(arcs))))  # parallel arcs
    rng.shuffle(arcs)
    return DiGraph.build(vs, [(f"e{j:02d}", s, d) for j, (s, d) in enumerate(arcs)])


class Splits:
    """Counts the kernel's splits and its stopped searches.

    ``wasted`` adds up the work of the searches that found no cycle.
    """

    def __init__(self, monkeypatch):
        self.splits = self.stopped = self.wasted = 0
        split, circuits = _kernels._split, _kernels._circuits

        def counted_split(*args):
            self.splits += 1
            return split(*args)

        def counted_search(*args):
            work = circuits(*args)
            self.stopped += work > args[-1]
            self.wasted += work
            return work

        monkeypatch.setattr(_kernels, "_split", counted_split)
        monkeypatch.setattr(_kernels, "_circuits", counted_search)


class TestBackendSelection:
    def test_backend_is_named(self):
        assert _kernels.BACKEND == "python"


class TestDispatch:
    def test_wide_ring(self):
        n = 70
        # ranks rising along the ring: the path runs back from arc 0, the least
        assert arc_cycles([(i, (i + 1) % n) for i in range(n)]) == [(0, *range(n - 1, 0, -1))]
        # ranks falling along the ring
        assert arc_cycles([((i + 1) % n, i) for i in range(n)]) == [tuple(range(n))]

    def test_deterministic(self):
        g = random_validated_graph(random.Random(99), max_vertices=8)
        arcs = list(zip(g.src, g.dst))
        first = arc_cycles(arcs)
        assert first
        for _ in range(3):
            assert kernel_cycles(len(g.names), arcs) == first

    def test_parts_leave_out_acyclic_vertices(self):
        # loop at 0 feeds 1 -> 2 -> 3 -> 1 and then the acyclic tail 4 -> 5
        arcs = [(0, 0), (0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 5)]
        out = [[j for j, (s, _) in enumerate(arcs) if s == v] for v in range(6)]
        parts = _kernels.components(out, [d for _, d in arcs])
        assert sorted(map(sorted, parts)) == [[0], [1, 2, 3], [5]]
        assert sorted(arc_cycles(arcs)) == [(0,), (2, 4, 3), (7,)]


class TestAgainstOracle:
    def test_one_component_multigraphs(self, monkeypatch):
        counts = Splits(monkeypatch)
        rng = random.Random(2024)
        total = 0
        for _ in range(400):
            g = one_component_multigraph(rng)
            assert set(helpers.kernel_components(g).values()) == {0}
            found = kernel_cycle_ids(g)
            assert len(found) == len(set(found))
            assert set(found) == naive_simple_cycles(g)
            total += len(found)
        assert total > 2000
        assert counts.splits > 10 and counts.stopped > 10

    def test_many_components_match_the_definition(self, monkeypatch):
        # components joined by arcs between them, which no cycle uses, and
        # arcs from acyclic vertices, in random rank order
        counts = Splits(monkeypatch)
        rng = random.Random(7)
        total = 0
        for _ in range(300):
            n = rng.randint(2, 9)
            arcs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 3 * n))]
            rng.shuffle(arcs)
            found = arc_cycles(arcs)
            assert set(found) == canonical_cycles(arcs)
            total += len(found)
        assert total > 1000
        assert counts.splits > 10 and counts.stopped > 10


class TestBound:
    def test_a_spent_ring_splits_once(self, monkeypatch):
        # ranks falling along a ring of n, and an entry of least rank: the ring
        # is found from its least arc, one search finds nothing above it, the
        # next stops, and the split leaves no part
        counts = Splits(monkeypatch)
        n = 500
        arcs = [(n, 0)] + [((i + 1) % n, i) for i in range(n)]
        assert arc_cycles(arcs) == [tuple(range(1, n + 1))]
        assert (counts.splits, counts.stopped) == (1, 1)
        # the search stops as soon as the waste passes a split's cost, the
        # ranked arcs and the vertices, one vertex and its in-arcs past it
        assert counts.wasted <= len(arcs) + (n + 1) + 3
