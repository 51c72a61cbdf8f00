"""Layer spans recorded from outside the package.

Each hook replaces a name where the package looks it up at call time (a
module attribute or a class attribute) with a wrapper that opens a span.
Spans nest on a stack, so a span's self time is its duration minus the time
of the spans it encloses.  A hook whose target no longer exists is recorded
as absent rather than failing, so the trace survives refactors that remove
or rename functions.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter


def _graph_size(g) -> dict:
    return {"digraph.vertices": len(g.vertices), "digraph.edges": len(g.edges)}


def _condition_a(report) -> dict:
    return {"spectrum.cycles": len(report.cycles), "spectrum.entries": len(report.entries)}


def _condition_b(report) -> dict:
    return {"spectrum.b_certificates": len(report.certificates)}


CLI = "groupoid_spectrum.cli"
SPECTRUM = "groupoid_spectrum.spectrum"
KERNELS = "groupoid_spectrum._kernels"

# (module, attribute where it is called, span, counts taken from the result)
HOOKS = (
    (CLI, "main", "cli.render", None),
    (CLI, "build_parser", "cli.argparse", None),
    (CLI, "parse_graph", "digraph.parse", _graph_size),
    (CLI, "validate_graph", "digraph.validate", None),
    (CLI, "require_validated", "digraph.validate", None),
    (SPECTRUM, "require_validated", "digraph.validate", None),
    (CLI, "decide_hausdorff_spectrum", "spectrum.decide", None),
    (SPECTRUM, "check_condition_a", "spectrum.condition_a", _condition_a),
    (CLI, "check_condition_a", "spectrum.condition_a", _condition_a),
    (SPECTRUM, "entry_free_cycles", "digraph.cycles", None),
    (KERNELS, "simple_cycles", "kernels.simple_cycles", None),
    (SPECTRUM, "check_condition_b", "spectrum.condition_b", _condition_b),
    (SPECTRUM, "reach_closure", "digraph.closure", None),
    (KERNELS, "reach_masks", "kernels.reach_masks", None),
    (SPECTRUM, "SpectrumVerdict.to_json", "spectrum.to_json", None),
    (CLI, "random_rotation", "models.so3", None),
    (CLI, "so3_conj_residual", "models.so3", None),
    (CLI, "so3_transport", "models.so3", None),
    (CLI, "so3_spectrum_point", "models.so3", None),
    (CLI, "dyadic_chart", "models.dyadic", None),
    (CLI, "dyadic_act_dual", "models.dyadic", None),
    (CLI, "format_rational", "exact.rational", None),
    (CLI, "parse_rational", "exact.rational", None),
    (CLI, "parse_family", "convergence.parse_family", None),
    (CLI, "run_family_check", "convergence.family_check", None),
    (CLI, "run_family_truncated", "convergence.truncated", None),
    (CLI, "condition_c_check", "convergence.condition_c", None),
)


class Tracer:
    """Installs the hooks, accumulates self time, calls and counts per span."""

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self, hooks=HOOKS) -> None:
        for module_name, path, span, counter in hooks:
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                owner = None
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name, None)
            target = getattr(owner, attr, None)
            if target is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(span, target, counter))
            self._installed.append((owner, attr, target))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, target = self._installed.pop()
            setattr(owner, attr, target)

    def _wrap(self, span, fn, counter):
        stack = self._stack

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.self_s[span] += elapsed - children[0]
                self.calls[span] += 1
            if counter is not None:
                self.counts.update(counter(result))
            return result

        return traced
