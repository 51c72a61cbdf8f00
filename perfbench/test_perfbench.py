"""Tests of the benchmark's own parts: generators, references, report summaries.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import reference
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from groupoid_spectrum import cli  # noqa: E402
from groupoid_spectrum.digraph import DiGraph  # noqa: E402
from groupoid_spectrum.spectrum import decide_hausdorff_spectrum  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    generate = workloads.WORKLOADS[name]
    first, again, other = generate(7, "w"), generate(7, "w"), generate(8, "w")
    assert first == again
    assert first != other


@pytest.mark.parametrize("n", [4, 5, 6])
def test_complete_graph_closed_form_matches_count(n):
    g = workloads.complete_graph(n)
    assert reference.count_cycles_entries(g.vertices, g.edges) == reference.complete_counts(n)


def test_complete_graph_closed_form_values():
    assert reference.complete_counts(7) == (2365, 68460)
    assert reference.complete_counts(8) == (16064, 657552)


@pytest.mark.parametrize("m", [1, 2, 3, 7])
def test_bouquet_closed_form_matches_count(m):
    g = workloads.bouquet(m)
    assert reference.count_cycles_entries(g.vertices, g.edges) == reference.bouquet_counts(m)


def _decide(g: workloads.Graph):
    return decide_hausdorff_spectrum(DiGraph.build(g.vertices, g.edges))


def _small_corpus():
    graphs = [workloads._graph_from_arcs(f"s{i}", 3, arcs) for i, arcs in enumerate(workloads.validated_simple(3, 5))]
    rng = random.Random(3)
    graphs += [workloads.random_multigraph(rng, f"r{i}", 1 + i % 5) for i in range(300)]
    graphs += [workloads.random_dense(rng, f"d{i}", 4) for i in range(20)]
    return graphs


def test_structural_reference_agrees_with_decider():
    for g in _small_corpus():
        verdict = _decide(g)
        a = reference.structural_condition_a(g.vertices, g.edges)
        assert verdict.condition_a.passed == a, g
        assert verdict.hausdorff == a, g
        if a:
            assert len(verdict.condition_a.cycles) == reference.cyclic_components(g.vertices, g.edges)


def test_cycle_count_agrees_with_decider_on_dense_graphs():
    rng = random.Random(5)
    for i in range(10):
        g = workloads.random_dense(rng, f"d{i}", 5)
        verdict = _decide(g)
        counts = (len(verdict.condition_a.cycles), len(verdict.condition_a.entries))
        assert reference.count_cycles_entries(g.vertices, g.edges) == counts


def test_planted_sparse_graph_is_entry_free_with_its_cycles():
    g, k = workloads.separated_sparse(random.Random(2), "p", 120, 7, 15)
    verdict = _decide(g)
    assert verdict.hausdorff
    assert len(verdict.condition_a.cycles) == k
    assert len(verdict.condition_b.certificates) == k * (k - 1) // 2


def test_validated_simple_count():
    assert len(workloads.validated_simple(4, 6)) == 6272


@pytest.mark.parametrize("graph", [workloads.complete_graph(4), workloads.bouquet(3),
                                   workloads.separated_sparse(random.Random(1), "p", 40, 4, 5)[0]])
def test_report_summary_matches_full_parse(tmp_path, graph):
    path = tmp_path / "g.txt"
    path.write_text(graph.text())
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["graph-analyze", str(path), "--json"]) == 0
    report = json.loads(out.getvalue())
    assert reference.summarize_analyze(out.getvalue()) == {
        "validated": True,
        "cycles": len(report["condition_a"]["cycles"]),
        "entries": len(report["condition_a"]["entries"]),
        "b_certificates": len(report["condition_b"]["certificates"]),
        "hausdorff": report["hausdorff"],
    }


def test_tracer_self_time_nesting_and_absent_hooks(monkeypatch):
    import types
    from time import perf_counter, sleep

    import tracing

    fake = types.ModuleType("perfbench_fake_layer")
    fake.inner = lambda: sleep(0.02)
    fake.outer = lambda: (sleep(0.01), fake.inner())
    monkeypatch.setitem(sys.modules, fake.__name__, fake)
    original = fake.inner
    tracer = tracing.Tracer()
    tracer.install([
        (fake.__name__, "outer", "outer", None),
        (fake.__name__, "inner", "inner", None),
        (fake.__name__, "removed_function", "gone", None),
        ("groupoid_spectrum.removed_module", "f", "gone", None),
    ])
    try:
        start = perf_counter()
        fake.outer()
        total = perf_counter() - start
    finally:
        tracer.uninstall()
    assert fake.inner is original
    assert tracer.absent == [f"{fake.__name__}.removed_function", "groupoid_spectrum.removed_module.f"]
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert tracer.self_s["inner"] >= 0.02 and tracer.self_s["outer"] >= 0.01
    assert tracer.self_s["outer"] + tracer.self_s["inner"] == pytest.approx(total, abs=0.005)
