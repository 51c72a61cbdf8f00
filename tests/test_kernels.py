"""The graph kernels: Johnson's cycle search per component, deterministic output."""

import random

import helpers
from corpus import random_validated_graph
from groupoid_spectrum import _kernels
from groupoid_spectrum.digraph import CycleRep, DiGraph
from oracle import naive_simple_cycles


def kernel_cycles(head, out: list[list[int]]) -> list[tuple[int, ...]]:
    """The kernel's cycles of the arcs in ``out``, searched in their components with a cycle."""
    return _kernels.simple_cycles(head, out, _kernels.components(out, head))


def kernel_cycle_ids(g: DiGraph) -> list[tuple[str, ...]]:
    return [
        CycleRep(tuple(g.edges[j] for j in reversed(arcs))).edge_ids()
        for arcs in kernel_cycles(g.dst, helpers.out_lists(g))
    ]


def arc_arrays(arcs: list[tuple[int, int]]) -> tuple[list[int], list[list[int]]]:
    """The kernel's arrays for (src, dst) arcs: each arc's head, and per vertex its arcs."""
    n = 1 + max(max(arc) for arc in arcs)
    return [d for _, d in arcs], [[j for j, (s, _) in enumerate(arcs) if s == v] for v in range(n)]


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


class TestBackendSelection:
    def test_backend_is_named(self):
        assert _kernels.BACKEND == "python"


class TestDispatch:
    def test_wide_ring(self):
        n = 70
        cycles = kernel_cycles(*arc_arrays([(i, (i + 1) % n) for i in range(n)]))
        assert cycles == [tuple(range(n))]

    def test_deterministic(self):
        g = random_validated_graph(random.Random(99), max_vertices=8)
        arrays = (g.dst, helpers.out_lists(g))
        first = kernel_cycles(*arrays)
        for _ in range(3):
            assert kernel_cycles(*arrays) == first

    def test_parts_leave_out_acyclic_vertices(self):
        # loop at 0 feeds 1 -> 2 -> 3 -> 1 and then the acyclic tail 4 -> 5
        arcs = arc_arrays([(0, 0), (0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 5)])
        assert sorted(kernel_cycles(*arcs)) == [(0,), (2, 3, 4), (7,)]


class TestAgainstOracle:
    def test_one_component_multigraphs(self):
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
