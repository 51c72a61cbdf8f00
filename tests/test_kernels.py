"""The cycle enumeration kernel: one backend, deterministic output."""

import random

from groupoid_spectrum import _kernels
from groupoid_spectrum.corpus import random_validated_graph


class TestBackendSelection:
    def test_backend_is_named(self):
        assert _kernels.BACKEND == "python"


class TestDispatch:
    def test_wide_ring(self):
        # path bitsets are Python ints, so no width limit applies
        n = 70
        cycles = _kernels.simple_cycles(n, [(i, (i + 1) % n) for i in range(n)])
        assert cycles == [tuple(range(n))]

    def test_deterministic(self):
        g = random_validated_graph(random.Random(99), max_vertices=8)
        n, arcs = len(g.vertices), g.arc_indices
        first = _kernels.simple_cycles(n, arcs)
        for _ in range(3):
            assert _kernels.simple_cycles(n, arcs) == first
