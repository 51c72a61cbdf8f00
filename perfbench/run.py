"""Benchmark of groupoid-spectrum: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload entry-dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Every workload is a closed loop with one client: the next input goes in only
after the previous report is out.  ``entry-dense``, ``separated-sparse`` and
``corpus-small`` call ``cli.main(["graph-analyze", path, "--json"])`` in
this process with stdout captured; ``cli-mix`` starts every subcommand as a
fresh ``python -m groupoid_spectrum.cli`` process.  Inputs are generated from
the seed and written under ``perfbench/work``; every report is checked
against ``reference.py``, never against the decider.

``--trace 0`` prints the end-to-end metrics of untraced passes.  ``--trace 1``
spends half the time on untraced passes and half on passes with the layer
hooks of ``tracing.py`` installed (``cli-mix`` is replayed in process for
both), and prints the per-layer metrics plus the tracing overhead.  The last
stdout line is one JSON object; the full result set, with the environment,
the report digest, raw pass times and any failing argv, goes to
``perfbench/results``.

End-to-end times are scaled to a reference machine speed: a short speed
probe runs between operations, on the one CPU the run is pinned to, and each
operation's time is multiplied by ``PROBE_REF_S`` over the probe times
around it.  Per-layer self times are reported as measured.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 5
WARMUP_OPS = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The host's speed drifts by tens of percent over seconds to minutes, as other
# tenants load its cores: the median of a fixed loop over 20 s windows spread
# by a quarter between windows.  Times are therefore reported scaled to a
# fixed reference speed, measured by a probe run between operations.
PROBE_EVERY_S = 0.1
PROBE_REF_S = 0.0035
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import groupoid_spectrum.cli; "
    "print(time.perf_counter() - t)"
)
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": str(SRC)}


def import_package():
    """Import the package from this checkout's ``src``, never an installed copy."""
    if not (SRC / "groupoid_spectrum" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import groupoid_spectrum
    import groupoid_spectrum.cli

    if Path(groupoid_spectrum.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported {groupoid_spectrum.__file__}, not the checkout's")
    return groupoid_spectrum.cli


def python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=SUBPROCESS_ENV, cwd=ROOT, timeout=120
    )


def setup(name: str, seed: int) -> tuple[list[workloads.Op], list[float]]:
    """Generate and write the inputs, then time a fresh import; several times.

    Each repetition is scaled to the reference speed like the passes are.
    """
    times = []
    for _ in range(SETUP_REPS):
        before = speed_probe()
        start = perf_counter()
        files, ops = workloads.WORKLOADS[name](seed, f"perfbench/work/{name}")
        workloads.write_inputs(files)
        generated = perf_counter() - start
        probe = python("-c", IMPORT_PROBE)
        if probe.returncode != 0:
            raise SystemExit(f"error: package import failed:\n{probe.stderr.decode()}")
        speed = (before + speed_probe()) / 2
        times.append((generated + float(probe.stdout)) * PROBE_REF_S / speed)
    return ops, times


def startup_probes() -> dict:
    """Interpreter start and package import, from fresh ``-X importtime`` processes."""
    bare, package, numpy = [], [], []
    for _ in range(3):
        start = perf_counter()
        python("-c", "pass")
        bare.append(perf_counter() - start)
        lines = python("-X", "importtime", "-c", "import groupoid_spectrum.cli").stderr.decode()
        cumulative = {}
        for line in lines.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        package.append(cumulative["groupoid_spectrum"] + cumulative["groupoid_spectrum.cli"])
        numpy.append(cumulative.get("numpy", 0))
    return {
        "cli.interpreter_ms": statistics.median(bare) * 1e3,
        "cli.import_ms": statistics.median(package) / 1e3,
        "cli.numpy_import_ms": statistics.median(numpy) / 1e3,
    }


class Runner:
    """Runs passes over one workload's operations and checks every report."""

    def __init__(self, cli, ops: list[workloads.Op], in_process: bool):
        self.cli = cli
        self.ops = ops
        self.in_process = in_process
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.failed = 0

    def _run_op(self, argv: list[str]) -> tuple[int, str, str]:
        """Exit code, stdout and stderr of one CLI invocation."""
        if not self.in_process:
            proc = python("-m", "groupoid_spectrum.cli", *argv)
            return proc.returncode, proc.stdout.decode(), proc.stderr.decode()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue(), err.getvalue()

    def one(self, op: workloads.Op) -> tuple[float, bytes]:
        start = perf_counter()
        try:
            code, text, err = self._run_op(op.argv)
            data = text.encode()
        except Exception as exc:  # a crash of the harness call is a failed operation
            code, text, err, data = 1, "", f"{type(exc).__name__}: {exc}", b""
        elapsed = perf_counter() - start
        self.attempted += 1
        try:
            problem = reference.check(op.kind, op.expect, code, text)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            problem = f"unreadable report: {type(exc).__name__}: {exc}"
        if problem is not None:
            self.failed += 1
            last_line = err.strip().splitlines()[-1:] or [""]
            self.failures.setdefault(" ".join(op.argv), f"{problem} {last_line[0]}".strip())
        return elapsed, data

    def warm_up(self) -> None:
        for op in self.ops[:WARMUP_OPS]:
            self._run_op(op.argv)

    def passes(self, seconds: float, minimum: int) -> dict:
        """Whole passes until the next one would overrun ``seconds``; at least ``minimum``.

        Every ``PROBE_EVERY_S`` a speed probe runs between operations; each
        operation's time is also scaled by the probes around it to what it
        would take when the probe takes ``PROBE_REF_S``.
        """
        raw, walls, op_times, digests, probes = [], [], [], [], []
        report_bytes = 0
        probed_at = -math.inf
        begin = last = perf_counter()
        while len(walls) < minimum or 2 * perf_counter() - begin - last <= seconds:
            last = perf_counter()
            digest = hashlib.sha256()
            timed = []
            report_bytes = 0
            for op in self.ops:
                if perf_counter() - probed_at >= PROBE_EVERY_S:
                    probes.append(speed_probe())
                    probed_at = perf_counter()
                elapsed, data = self.one(op)
                timed.append((elapsed, len(probes) - 1))
                digest.update(data)
                report_bytes += len(data)
                del data
            probes.append(speed_probe())
            scaled = [
                elapsed * PROBE_REF_S / statistics.median(probes[max(0, i - 1):i + 2])
                for elapsed, i in timed
            ]
            raw.append(sum(elapsed for elapsed, _ in timed))
            walls.append(sum(scaled))
            op_times += scaled
            digests.append(digest.hexdigest())
        return {
            "walls": walls,
            "raw_walls": raw,
            "op_times": op_times,
            "digests": digests,
            "report_bytes": report_bytes,
            "probe_ms_median": statistics.median(probes) * 1e3,
        }


def speed_probe() -> float:
    """Seconds this machine takes right now for a fixed slice of interpreter work.

    The slice mixes what the package spends its time on: small frozen
    objects, sorting, indented JSON, and integer arithmetic.
    """
    start = perf_counter()
    items = [_ProbeItem(f"e{i * 7919 % 1000:04d}", i, (i, i + 1)) for i in range(300)]
    items.sort(key=lambda item: (item.key, item.n))
    json.dumps([{"key": item.key, "n": item.n, "pair": list(item.pair)} for item in items], indent=2)
    total = 0
    for i in range(25000):
        total += i * i
    return perf_counter() - start


@dataclass(frozen=True)
class _ProbeItem:
    key: str
    n: int
    pair: tuple


def tail(op_times: list[float], per_pass: int) -> tuple[float, float]:
    """Highest ladder percentile with at least 10 samples beyond it in two passes.

    Fixing the percentile from the pass size, not from the number of passes
    that fit, keeps it the same percentile from run to run.
    """
    p = next((q for q in TAIL_LADDER if 2 * per_pass * (1 - q / 100) >= 10), 50.0)
    ordered = sorted(op_times)
    return p, ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)] * 1e3


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    from groupoid_spectrum import _kernels

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernels_backend": _kernels.BACKEND,
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
    }


def defect_probe(argv: list[str]) -> str:
    proc = python("-m", "groupoid_spectrum.cli", *argv)
    lines = proc.stderr.decode().strip().splitlines()
    return f"exit {proc.returncode}" + (f": {lines[-1]}" if lines else "")


def pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU, the one the probe measures."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cpu = pin_to_one_cpu()
    cli = import_package()
    ops, setup_times = setup(name, seed)
    subprocess_ops = name == "cli-mix" and not trace
    runner = Runner(cli, ops, in_process=not subprocess_ops)
    runner.warm_up()
    result = {
        "workload": name,
        "trace": int(trace),
        "environment": {**environment(seed), "pinned_cpu": cpu},
        "ops_per_pass": len(ops),
        "setup_runs_s": setup_times,
    }
    budget = seconds / 2 if trace else seconds
    untraced = runner.passes(budget, 1 if trace else 2)
    op_times = untraced["op_times"]
    percentile, tail_ms = tail(op_times, len(ops))
    wall_s = statistics.median(untraced["walls"])
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall_s,
        "op_ms_p50": statistics.median(op_times) * 1e3,
        "op_ms_tail": tail_ms,
        "peak_rss_mb": peak_rss_mb(children=subprocess_ops),
    }
    digests = untraced["digests"]
    result.update(
        passes=len(untraced["walls"]),
        pass_wall_s=untraced["walls"],
        raw_pass_wall_s=untraced["raw_walls"],
        probe_ms_median=untraced["probe_ms_median"],
        samples=len(op_times),
        tail_percentile=percentile,
        mode="subprocess" if subprocess_ops else "in-process",
    )
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = runner.passes(budget, 1)
        finally:
            tracer.uninstall()
        # spans and counters accumulate over the traced passes; report one pass
        passes = len(traced["walls"])
        digests = digests + traced["digests"]
        layer = {f"{span}_ms": t * 1e3 / passes for span, t in tracer.self_s.items()}
        layer.update({k: v // passes for k, v in tracer.counts.items()})
        layer["models.so3_calls"] = tracer.calls["models.so3"] // passes
        layer["cli.report_bytes"] = untraced["report_bytes"]
        layer.update(startup_probes())
        traced_wall = statistics.median(traced["walls"])
        layer["trace.wall_s"] = traced_wall
        layer["trace.untraced_wall_s"] = wall_s
        layer["trace.overhead_pct"] = (traced_wall - wall_s) / wall_s * 100
        layer["trace.accounted_pct"] = sum(tracer.self_s.values()) / sum(traced["raw_walls"]) * 100
        layer["trace.absent_hooks"] = len(tracer.absent)
        result["absent_hooks"] = tracer.absent
        result["traced_pass_wall_s"] = traced["walls"]
        metrics.update(layer)
    if name == "cli-mix":
        files, argvs = workloads.known_defects(f"perfbench/work/{name}")
        workloads.write_inputs(files)
        result["known_defects"] = {" ".join(argv): defect_probe(argv) for argv in argvs}
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        error_rate=runner.failed / runner.attempted,
        failing_argv=runner.failures,
        digest=digests[0],
        digest_stable=len(set(digests)) == 1,
        metrics=metrics,
    )
    return result


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def emit(result: dict, spec: dict, trace: bool, out_dir: Path) -> dict:
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": result["metrics"].get(m["name"], 0), "unit": m["unit"]} for m in wanted
    }
    env = result["environment"]
    print(f"workload {result['workload']} seed {env['seed']} trace {result['trace']} "
          f"({result['mode']}, {result['passes']} passes of {result['ops_per_pass']} ops)")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"  tail is p{result['tail_percentile']:g} of {result['samples']} samples")
    print(f"  error_rate {result['error_rate']:.6g} ({result['failed']}/{result['attempted']})")
    print(f"  report digest {result['digest']} ({'stable' if result['digest_stable'] else 'UNSTABLE'})")
    for argv, problem in result["failing_argv"].items():
        print(f"  FAILED {argv}: {problem}")
    for argv, outcome in result.get("known_defects", {}).items():
        print(f"  known defect probe (not timed) {argv}: {outcome}")
    for hook in result.get("absent_hooks", ()):
        print(f"  absent hook {hook}")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{result['workload']}_seed{env['seed']}_trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"  results written to {path.relative_to(ROOT)}")
    return {
        "correct": result["failed"] == 0 and result["digest_stable"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS stays per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=600,
        )
        sys.stdout.write(proc.stdout.rpartition("\n{")[0] + "\n")
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {name} failed:\n{proc.stderr}")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] = summary["correct"] and last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.chdir(ROOT)
    spec = load_spec()
    if args.workload == "all":
        line = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        line = emit(result, spec, bool(args.trace), HERE / "results")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
