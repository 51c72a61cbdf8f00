"""Command line frontend.

Reports are deterministic: fixed key order, sorted lists, no timestamps, and
exact values rendered as rational strings (SO(3) residuals use scientific
notation with three significant digits).  Exit codes describe tool health,
not verdicts: 0 for a completed analysis (whatever it concluded), 2 for
invalid input, 1 for an internal error.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys
from functools import cache, lru_cache
from itertools import combinations, islice, repeat
from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str
from types import SimpleNamespace

from . import InputError, __version__, _unique_keys

# The names this module takes from each sibling module.  They are bound as
# globals by ``_bind`` when a command first needs them, so a process imports
# only the modules its command runs.  The handlers below read them as
# globals, so they run through ``main``, which binds their modules first.
# ``Fraction`` is taken from ``exact`` too, so only the commands that compute
# with rationals load ``fractions`` and the ``decimal`` module behind it.
_IMPORTS = {
    "convergence": (
        "DEFAULT_TESTS",
        "CharSeqSpec",
        "DyadicArrowFamily",
        "PointSeqSpec",
        "condition_c_check",
        "parse_family",
        "run_family_check",
        "run_family_truncated",
    ),
    "digraph": (
        "DiGraph",
        "InvalidGraphError",
        "parse_graph",
        "require_validated",
    ),
    "exact": ("AffineSeq", "CatalogError", "DyadicSeq", "Fraction", "format_rational", "parse_rational"),
    "models": (
        "LINE_BRANCH",
        "CharQ",
        "CharSO3",
        "PointY",
        "dyadic_act_dual",
        "dyadic_chart",
        "quaternion_rotation",
        "random_rotation",  # no handler calls it; the benchmark's trace hooks it here
        "so3_conj_residual",
        "so3_norm_squared",
        "so3_spectrum_point",
        "so3_transport",
    ),
    "spectrum": (
        "CONDITION_C_NOTE",
        "ORBIT_REFUSAL",
        "EventualPath",
        "check_condition_a",
        "decide_hausdorff_spectrum",
        "shift_equivalent",
        "stabilizer_of_path",
        "stabilizer_record",
    ),
}

# the sibling modules each command's handlers use
_USES = {
    "graph-analyze": ("digraph", "spectrum"),
    "graph-orbits": ("digraph", "spectrum"),
    "graph-equiv": ("digraph", "spectrum"),
    "model-green": ("exact", "models"),
    "model-dyadic": ("convergence", "exact", "models"),
    "model-so3": ("models",),
    "check-family": ("convergence", "exact"),
}


@cache
def _bind(module: str) -> None:
    """Import a sibling module and set the names taken from it as globals, once per process.

    A name already set is kept, so a replacement installed before the first
    call (a test's monkeypatch, a tracing hook) is the one the handlers call.
    """
    source = importlib.import_module(f".{module}", __package__)
    namespace = globals()
    for name in _IMPORTS[module]:
        namespace.setdefault(name, getattr(source, name))


def __getattr__(name: str):
    """Bind a sibling module's names on first access from outside (PEP 562)."""
    for module, names in _IMPORTS.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


SEED_ENV = "GROUPOID_SPECTRUM_SEED"


EMIT_CHUNK = 4096  # text report lines per write


def _emit(report: dict | None, lines, as_json: bool) -> None:
    """Write the JSON report, or the text lines in chunks, each line ending in a newline.

    Only the one written is read: a graph command writes its own JSON and
    passes None as a text run's report.  ``lines`` may be a generator: it is
    consumed one chunk at a time, so a text report is never held whole.
    """
    if as_json:
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
        return
    encoding = getattr(sys.stdout, "encoding", None)  # None for a StringIO
    lines = iter(lines)
    while chunk := list(islice(lines, EMIT_CHUNK)):
        text = "\n".join(chunk) + "\n"
        if encoding:
            # what stdout cannot encode is written as a backslash escape, as on stderr
            text = text.encode(encoding, "backslashreplace").decode(encoding)
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# indent-2 JSON writer
#
# A graph report is written in pieces, exactly as ``json.dumps(report,
# indent=2)`` would write it: its fixed skeleton, and lists rendered from
# per-cycle templates.  The other reports are small and go through
# ``json.dumps`` whole (``_emit``).

# the newline and indent that open a line ``depth`` levels deep; a graph report nests 6 deep at most
_PAD = tuple("\n" + "  " * depth for depth in range(7))
_BOOLS = ("false", "true")  # json.dumps of False and True, indexed by them
_fixed = cache(_quote)  # a fixed string of the graph reports, quoted once per process


def _write_list(write, blocks, depth: int) -> None:
    """Write a list ``depth`` deep of ``blocks``: items one level deeper, joined by a comma and indent."""
    inner = _PAD[depth + 1]
    opener = "[" + inner
    for block in blocks:
        write(opener)
        write(block)
        opener = "," + inner
    write("[]" if opener[0] == "[" else _PAD[depth] + "]")


def _id_list(ids: str, depth: int) -> str:
    """A cycle's quoted ids, joined by newlines (``_ranked_report``), as a list ``depth`` deep."""
    inner = _PAD[depth + 1]
    return "[" + inner + ids.replace("\n", "," + inner) + _PAD[depth] + "]"


def _ranked_report(report_a, quoted: bool) -> tuple[list[str], list[tuple[int, str, list[str]]]]:
    """A ``ConditionAReport``'s cycles and runs by edge id, each ranked edge's id quoted (or not) once.

    Returns each cycle's ids joined, in cycle order, and per run its cycle's
    length, that string and the ids of its entries.  Quoted ids are joined by
    newlines, which no quoted id holds, so a JSON report renders a cycle's
    lists at any depth from its one string; text ids are joined by commas.
    """
    ranks, ids = report_a.cycle_ranks, report_a.ranked_ids()
    named = list(map(_quote, ids)).__getitem__ if quoted else ids.__getitem__
    cycles = [("\n" if quoted else ",").join(map(named, c)) for c in ranks]
    runs = [(len(ranks[k]), cycles[k], list(map(named, run))) for k, run in report_a.run_ranks]
    return cycles, runs


@lru_cache(maxsize=1024)
def _entry_tail(record, length: int, depth: int) -> str:
    """What follows the entry id in an item ``depth`` deep of a cycle of ``length`` edges.

    That is the fields of ``record(length)``, if ``record`` is given, and the
    closing brace.  A tail is rendered once per process, not once per report;
    the cache is bounded, since cycle lengths are not.
    """
    pad = _PAD[depth + 1]
    rest = record(length) if record else {}
    fields = "".join(f",{pad}{_quote(key)}: {json.dumps(value)}" for key, value in rest.items())
    return fields + _PAD[depth] + "}"


def _write_entries(write, runs: list[tuple[int, str, list[str]]], depth: int, record=None) -> None:
    """Write the ``entries`` list ``depth`` deep, or ``stabilizer_discontinuity`` given ``record``.

    ``runs`` comes from ``_ranked_report``.  Every item opens with the cycle
    and the entry, so each cycle's items are one join of its quoted entry ids
    between that head and a tail, written apart.  The tail closes an entries
    item, after the rest of a stabilizer item given ``record`` (``_entry_tail``).
    """
    pad = _PAD[depth + 2]
    item = "," + _PAD[depth + 1]
    opener = "[" + _PAD[depth + 1]
    for length, cycle, ids in runs:
        head = f'{{{pad}"cycle": {_id_list(cycle, depth + 2)},{pad}"entry": '
        tail = _entry_tail(record, length, depth + 1)
        write(opener + head)
        write((tail + item + head).join(ids))
        write(tail)
        opener = item
    write("[]" if opener[0] == "[" else _PAD[depth] + "]")


def _certificate_blocks(quoted, certificates, depth: int):
    """Condition B's ``certificates`` rendered ``depth`` deep, one block per first cycle.

    ``quoted`` are the cycles' quoted ids, and ``certificates`` those of
    ``check_condition_b``: one (u, v) per pair (a, b), a < b, of the cycles,
    in that order.  Each cycle's id list is rendered once; an item is its
    pair's two lists and the quoted u and v between fixed pieces.
    """
    if not certificates:  # condition B skipped
        return
    pad = _PAD[depth + 1]
    lists = [_id_list(ids, depth + 2) for ids in quoted]
    between = "," + _PAD[depth + 2]
    u_key = pad + "]," + pad + '"u": '
    v_key = "," + pad + '"v": '
    close = _PAD[depth] + "}"
    remaining = iter(certificates)
    for a, first in enumerate(lists[:-1]):
        head = f'{{{pad}"pair": [{_PAD[depth + 2]}{first}{between}'
        yield ("," + _PAD[depth]).join(
            [
                head + second + u_key + _quote(u) + v_key + _quote(v) + close
                for second, (u, v) in zip(lists[a + 1:], remaining)
            ]
        )


def _write_head(write, command: str, args) -> None:
    """Write a graph command's JSON report up to its ``validated`` field, with the comma after it."""
    write(
        f'{{\n  "command": "{command}",\n  "version": {_fixed(__version__)},\n  "input": {_quote(args.graph)},'
        f'\n  "transpose": {_BOOLS[args.transpose]},\n  "validated": true,'
    )


def _read_text(path: str) -> str:
    """The UTF-8 text of an input file, a byte-order mark dropped and newlines read as text mode reads them.

    The file is decoded whole, so a cut-off byte-order mark is a decode
    error like any other cut-off sequence, not an empty file.  The mark is
    cut from the bytes: the ``utf-8-sig`` codec does the same in Python.
    """
    try:
        with open(path, "rb") as file:
            text = file.read().removeprefix(b"\xef\xbb\xbf").decode()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise InputError(f"cannot read {path}: {exc}") from None
    if "\r" in text:  # universal newlines: \r\n and a lone \r end a line
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _load_graph(path: str, transpose: bool) -> DiGraph:
    g = parse_graph(_read_text(path))
    return g.transpose() if transpose else g


def _envelope(command: str, **fields) -> dict:
    return {"command": command, "version": __version__, **fields}


# ---------------------------------------------------------------------------
# graph commands


def cmd_graph_analyze(args) -> int:
    g = _load_graph(args.graph, args.transpose)
    try:
        verdict = decide_hausdorff_spectrum(g)
    except InvalidGraphError as exc:
        report = _envelope(
            "graph-analyze",
            input=args.graph,
            transpose=args.transpose,
            validated=False,
            violations=[v.to_json() for v in exc.violations],
        )
        lines = ["validated: no"] + [f"  {v.detail}" for v in exc.violations]
        _emit(report, lines, args.json)
        return 2
    a, b = verdict.condition_a, verdict.condition_b
    cycles, runs = _ranked_report(a, quoted=args.json)
    if not args.json:
        _emit(None, _analyze_lines(verdict, cycles, runs), False)
        return 0
    write = sys.stdout.write
    _write_head(write, "graph-analyze", args)
    write(f'\n  "condition_a": {{\n    "pass": {_BOOLS[a.passed]},\n    "cycles": ')
    _write_list(write, map(_id_list, cycles, repeat(3)), 2)
    write(',\n    "entries": ')
    _write_entries(write, runs, 2)
    if not a.passed:
        write(',\n    "stabilizer_discontinuity": ')
        _write_entries(write, runs, 2, stabilizer_record)
    b_pass = "true" if b.status == "pass" else '"skipped"'
    write(f'\n  }},\n  "condition_b": {{\n    "pass": {b_pass},\n    "certificates": ')
    _write_list(write, _certificate_blocks(cycles, b.certificates, 3), 2)
    write(
        f'\n  }},\n  "condition_c": {_fixed(CONDITION_C_NOTE)},'
        f'\n  "hausdorff": {_BOOLS[verdict.hausdorff]}\n}}\n'
    )
    return 0


def _analyze_lines(verdict, cycles, runs):
    """The text report's lines, from ``_ranked_report``'s unquoted cycles and runs, one at a time."""
    a, b = verdict.condition_a, verdict.condition_b
    yield "validated: yes"
    yield (
        f"condition A: {'PASS' if a.passed else 'FAIL'} "
        f"({len(cycles)} cycles, {sum(len(ids) for _, _, ids in runs)} entries)"
    )
    for cycle in cycles:
        yield f"  cycle: {cycle}"
    yield from (f"  entry: {entry} -> cycle {cycle}" for _, cycle, ids in runs for entry in ids)
    discontinuity: dict[int, str] = {}  # the line per cycle length
    for length, _, ids in runs:
        if length not in discontinuity:
            record = stabilizer_record(length)
            discontinuity[length] = (
                f"  stabilizer discontinuity: approximating periods 0, "
                f"Fell limit {record['approx_fell_limit']} vs {record['period_at_limit']} at the cycle"
            )
        yield from repeat(discontinuity[length], len(ids))
    if b.status == "skipped":
        yield "condition B: SKIPPED (condition A failed)"
    else:
        yield f"condition B: PASS ({len(b.certificates)} certificates)"
        for (first, second), (u, v) in zip(combinations(cycles, 2), b.certificates):
            yield f"  pair ({first} | {second}): u={u} v={v}"
    yield f"condition C: {CONDITION_C_NOTE}"
    yield f"hausdorff: {'YES' if verdict.hausdorff else 'NO'}"


def cmd_graph_orbits(args) -> int:
    g = _load_graph(args.graph, args.transpose)
    require_validated(g)
    report_a = check_condition_a(g)
    cycles, runs = _ranked_report(report_a, quoted=args.json)
    if not args.json:
        _emit(None, _orbit_lines(cycles, runs), False)
        return 0
    write = sys.stdout.write
    _write_head(write, "graph-orbits", args)
    if report_a.passed:
        write('\n  "refused": false,\n  "orbits": ')
        _write_list(write, map(_id_list, cycles, repeat(2)), 1)
        write(f',\n  "count": {len(cycles)}\n}}\n')
    else:
        write(f'\n  "refused": true,\n  "reason": {_fixed(ORBIT_REFUSAL)},\n  "entries": ')
        _write_entries(write, runs, 1)
        write("\n}\n")
    return 0


def _orbit_lines(cycles, runs):
    """The text report's lines: the orbits, or the refusal and its entries (as ``_analyze_lines``)."""
    if not runs:
        yield f"orbits: {len(cycles)}"
        for cycle in cycles:
            yield f"  {cycle}"
    else:
        yield f"refused: {ORBIT_REFUSAL}"
        yield from (f"  entry: {entry} -> cycle {cycle}" for _, cycle, ids in runs for entry in ids)


def _parse_path_literal(g: DiGraph, literal: str) -> EventualPath:
    """Path literal 'p1,p2:c1,c2' (prefix before the colon, may be empty)."""
    if ":" not in literal:
        raise InputError(f"path literal needs ':' separating prefix and cycle: {literal!r}")
    prefix_part, cycle_part = literal.split(":", 1)
    def lookup(ids_csv: str) -> tuple:
        if not ids_csv.strip():
            return ()
        out = []
        for eid in ids_csv.split(","):
            eid = eid.strip()
            if not eid:
                raise InputError(f"path literal has an empty edge id: {literal!r}")
            if eid not in g.edge_by_id:
                raise InputError(f"unknown edge id {eid!r}")
            out.append(g.edge_by_id[eid])
        return tuple(out)
    prefix, cycle = lookup(prefix_part), lookup(cycle_part)
    if not cycle:
        raise InputError(f"path literal has an empty cycle part: {literal!r}")
    try:
        return EventualPath(prefix, cycle)
    except ValueError as exc:
        raise InputError(f"bad path literal {literal!r}: {exc}") from None


def cmd_graph_equiv(args) -> int:
    g = _load_graph(args.graph, args.transpose)
    require_validated(g)
    x = _parse_path_literal(g, args.x)
    y = _parse_path_literal(g, args.y)
    equivalent = shift_equivalent(x, y)
    report = _envelope(
        "graph-equiv",
        input=args.graph,
        transpose=args.transpose,
        x=x.to_json(),
        y=y.to_json(),
        minimized={"x": x.minimize().to_json(), "y": y.minimize().to_json()},
        shift_equivalent=equivalent,
        stabilizer_periods={"x": stabilizer_of_path(x), "y": stabilizer_of_path(y)},
    )
    lines = [
        f"shift equivalent: {'yes' if equivalent else 'no'}",
        f"stabilizer period of x: {stabilizer_of_path(x)}",
        f"stabilizer period of y: {stabilizer_of_path(y)}",
    ]
    _emit(report, lines, args.json)
    return 0


# ---------------------------------------------------------------------------
# model-green


def cmd_green_verify(args) -> int:
    rows = []
    all_equal = True
    for n in range(args.n_max + 1):
        start = dyadic_chart(n, 0)
        moved = dyadic_chart(n, 2 * n + 1)
        expected = (Fraction(1, 2 ** (2 * n + 1)), Fraction(0), Fraction(0))
        equal = moved == expected
        all_equal = all_equal and equal
        rows.append(
            {
                "n": n,
                "start": [format_rational(c) for c in start],
                "shift": 2 * n + 1,
                "end": [format_rational(c) for c in moved],
                "expected": [format_rational(c) for c in expected],
                "equal": equal,
            }
        )
    report = _envelope(
        "model-green verify-eq3",
        n_max=args.n_max,
        rows=rows,
        confirmations=sum(1 for r in rows if r["equal"]),
        all_equal=all_equal,
    )
    lines = []
    for r in rows:
        lines.append(
            f"n={r['n']}: ({','.join(r['start'])}) + {r['shift']} "
            f"-> ({','.join(r['end'])})  [{'ok' if r['equal'] else 'MISMATCH'}]"
        )
    lines.append(
        f"{report['confirmations']} exact confirmations"
        + ("" if all_equal else "; MISMATCH FOUND")
    )
    _emit(report, lines, args.json)
    return 0


# ---------------------------------------------------------------------------
# model-dyadic


def _parse_tests(csv: str | None) -> tuple[Fraction, ...]:
    if csv is None:
        return DEFAULT_TESTS
    try:
        return tuple(parse_rational(part) for part in csv.split(","))
    except ValueError as exc:
        raise InputError(f"bad --tests value: {exc}") from None


def counterexample_setup() -> tuple[DyadicArrowFamily, CharSeqSpec, CharQ, CharQ]:
    """The exact family gamma_i = ((0, 2i+1), chart i at 2i+1), chi_i = 1-hat."""
    family = DyadicArrowFamily(
        DyadicSeq.constant(0), AffineSeq(2, 1), PointSeqSpec(None, AffineSeq(2, 1))
    )
    chi_spec = CharSeqSpec(family.source_spec(), DyadicSeq.constant(1))
    origin = PointY(LINE_BRANCH, 0)
    return family, chi_spec, CharQ(Fraction(1), origin), CharQ(Fraction(0), origin)


def cmd_dyadic_demo(args) -> int:
    tests = _parse_tests(args.tests)
    family, chi_spec, chi, omega = counterexample_setup()
    verdict = condition_c_check(family, chi_spec, chi, omega, tests)
    rows = []
    for n in range(args.n_max + 1):
        gamma = family.arrow_at(n)
        chi_n = chi_spec.char_at(n)
        moved = dyadic_act_dual(gamma, chi_n)
        rows.append(
            {
                "n": n,
                "gamma": gamma.to_json(),
                "chi": chi_n.to_json(),
                "transported": moved.to_json(),
            }
        )
    report = _envelope(
        "model-dyadic demo-c-failure",
        n_max=args.n_max,
        tests=[format_rational(q) for q in tests],
        rows=rows,
        limits={"chi": chi.to_json(), "omega": omega.to_json()},
        **verdict.to_json(),
        verdict="condition (c) VIOLATED" if not verdict.holds else "condition (c) holds",
    )
    lines = []
    for r in rows:
        lines.append(
            f"n={r['n']}: gamma=(({r['gamma']['h']['q']},{r['gamma']['h']['n']}), "
            f"({','.join(r['gamma']['base']['embed'])}))  "
            f"chi={r['chi']['r']}-hat at ({','.join(r['chi']['base']['embed'])})  "
            f"gamma.chi={r['transported']['r']}-hat"
        )
    lines.append(
        f"limits: chi = {chi.to_json()['r']}-hat at "
        f"({','.join(chi.base.to_json()['embed'])}), omega = {omega.to_json()['r']}-hat "
        f"at ({','.join(omega.base.to_json()['embed'])})"
    )
    lines.append(report["verdict"])
    _emit(report, lines, args.json)
    return 0


def _load_family(path: str):
    text = _read_text(path)
    try:
        return parse_family(json.loads(text, object_pairs_hook=_unique_keys))
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and integers past the digit limit
        raise InputError(f"bad family file: {exc}") from None


def cmd_dyadic_check_s(args) -> int:
    spec = _load_family(args.family)
    if spec.space != "S":
        raise InputError("family file declares the dual space; use check-family for it")
    result = _run_family(spec)
    report = _envelope("model-dyadic check-c-on-s", input=args.family, **result)
    lines = _family_lines(result)
    _emit(report, lines, args.json)
    return 0


def _run_family(spec, truncate: int | None = None, tol: float = 0.0) -> dict:
    """The exact check of a parsed family, or its float probe at ``truncate``.

    A family whose transported sequence leaves the exact catalog, and a
    probe index the float probe cannot reach, are input errors.
    """
    try:
        if truncate is None:
            return run_family_check(spec)
        return run_family_truncated(spec, truncate, tol)
    except CatalogError as exc:
        raise InputError(f"family leaves the exact sequence catalog: {exc}") from None


def _family_lines(result: dict) -> list[str]:
    if result["outcome"] == "hypothesis-failure":
        return [f"hypothesis failure: {result['hypothesis_failure']}"]
    if result["outcome"] == "numeric-probe":
        return [
            f"numeric probe at index {result['row']['index']}: "
            f"{'within' if result['within_tolerance'] else 'outside'} tolerance {result['tolerance']}"
        ]
    verdict = result["verdict"]
    lines = [f"holds: {'yes' if verdict['holds'] else 'no'}"]
    if "branch" in verdict:
        lines.append(f"branch: {verdict['branch']}")
    if "note" in verdict:
        lines.append(f"note: {verdict['note']}")
    return lines


# ---------------------------------------------------------------------------
# model-so3


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is None:
        return 0
    try:
        seed = int(env)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise InputError(f"{SEED_ENV} must be an integer >= 0, got {env!r}")


def cmd_so3_conj(args) -> int:
    import numpy as np

    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    # each trial's draws in turn, in this order, then the trials' arithmetic as stacks
    quaternions, axes, angles, indices = [], [], [], []
    for _ in range(args.trials):
        quaternions.append(rng.normal(size=4))
        axis = rng.normal(size=3)
        while float(np.linalg.norm(axis)) < 1e-8:
            axis = rng.normal(size=3)
        axes.append(axis)
        angles.append(float(rng.uniform(0.0, 2.0 * math.pi)))
        indices.append(int(rng.integers(-5, 6)))
    v_mats = quaternion_rotation(np.array(quaternions))
    axes = np.array(axes)
    max_residual = max([0.0, *so3_conj_residual(v_mats, axes, angles).tolist()])
    chis = [CharSO3.at(axis, k) for axis, k in zip(axes.tolist(), indices)]
    max_invariant = 0.0
    index_preserved = True
    for chi, moved in zip(chis, so3_transport(v_mats, chis)):
        norm0, k0 = so3_spectrum_point(chi)
        norm1, k1 = so3_spectrum_point(moved)
        max_invariant = max(max_invariant, abs(norm1 - norm0))
        index_preserved = index_preserved and k0 == k1
    passed = max_residual <= args.tol and max_invariant <= args.tol and index_preserved
    report = _envelope(
        "model-so3 conj-test",
        trials=args.trials,
        seed=seed,
        tol=f"{args.tol:.3e}",
        max_residual=f"{max_residual:.3e}",
        max_invariant_residual=f"{max_invariant:.3e}",
        index_preserved=index_preserved,
        **{"pass": passed},
    )
    lines = [
        f"trials: {args.trials} (seed {seed})",
        f"max conjugation residual: {max_residual:.3e}",
        f"max orbit invariant residual: {max_invariant:.3e}",
        f"integer index preserved: {'yes' if index_preserved else 'no'}",
        f"{'PASS' if passed else 'FAIL'} (tolerance {args.tol:.3e})",
    ]
    _emit(report, lines, args.json)
    return 0


def cmd_so3_spectrum(args) -> int:
    try:
        coords = [float(part) for part in args.v.split(",")]
    except ValueError as exc:
        raise InputError(f"bad --v value: {exc}") from None
    if len(coords) != 3:
        raise InputError("--v needs exactly three comma-separated coordinates")
    squares = so3_norm_squared(coords)  # the |v|**2 whose root is reported
    # NaN, an infinity or an overflow; or a nonzero vector whose |v| would underflow
    if not (math.isfinite(squares) and (squares >= sys.float_info.min or not any(coords))):
        raise InputError(
            f"--v must be finite with |v|**2 zero or in the normal float range, got {args.v!r}"
        )
    chi = CharSO3.at(coords, args.k)
    norm, k = so3_spectrum_point(chi)
    report = _envelope(
        "model-so3 spectrum",
        v=list(chi.v),
        k=k,
        invariants={"norm": f"{norm:.12e}", "k": k},
    )
    lines = [f"orbit invariants: |v| = {norm:.12e}, k = {k}"]
    _emit(report, lines, args.json)
    return 0


# ---------------------------------------------------------------------------
# check-family


def cmd_check_family(args) -> int:
    spec = _load_family(args.family)
    if args.tests is not None:
        if spec.space != "dual":
            raise InputError("--tests only applies to dual-space families")
        spec = spec.replace(tests=_parse_tests(args.tests))
    result = _run_family(spec, args.truncate, args.tol)
    report = _envelope("check-family", input=args.family, **result)
    _emit(report, _family_lines(result), args.json)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


MAX_N = 1000  # --n-max: the report grows quadratically, 1.2 MB of JSON at 1000
MAX_TRIALS = 10_000  # --trials: about 0.7 s of SO(3) trials


def _type_error(message: str) -> Exception:
    """argparse's error for a value that a type function refuses; argparse is imported only then."""
    import argparse

    return argparse.ArgumentTypeError(message)


def _int_in(minimum: int, maximum: int | None = None):
    """An argparse type: an integer no smaller than ``minimum`` and no larger than ``maximum``.

    A count below the minimum would run no rows or trials and report a
    vacuous pass, and one above the maximum would run without a useful
    bound on time or output, so argparse rejects both with exit 2.
    """

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise _type_error(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise _type_error(f"must be at most {maximum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _tolerance(text: str) -> float:
    """An argparse type: a finite float no smaller than 0.

    An infinite tolerance would make every comparison a vacuous pass, and a
    negative or NaN one would fail every comparison without saying why, so
    argparse rejects them with exit 2.
    """
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise _type_error(f"must be finite and at least 0, got {text!r}")
    return value


_tolerance.__name__ = "float"  # argparse names the type in "invalid float value"


# The command table.  ``_COMMANDS`` maps each command, in the order the
# top-level help lists them, to its help line and either a dict of its nested
# verbs (each a help line and a leaf) or a leaf: the handler, the positionals
# (name -> help) and the options by flag, each (dest, kind, default,
# required, help).  ``kind`` is the type function of an option that takes a
# value (None keeps the text) or, for a flag that takes none, the bool it
# stores.  ``build_parser`` builds the argparse tree from the table and
# ``_read_plain`` reads plain calls from it.

_OUTPUT = {  # every leaf's options end with this mutually exclusive pair
    "--json": ("json", True, False, False, "emit a JSON report"),
    "--text": ("json", False, False, False, "emit plain text (default)"),
}


def _option(help: str, kind=None, default=None, required: bool = False) -> tuple:
    return kind, default, required, help


def _flag(help: str) -> tuple:
    return True, False, False, help


def _leaf(handler, positionals: dict, options: dict) -> tuple:
    """A leaf of the table: each option gets the dest argparse gives its flag; the output pair follows."""
    options = {flag: (flag[2:].replace("-", "_"), *option) for flag, option in options.items()}
    return handler, positionals, {**options, **_OUTPUT}


_GRAPH = {"graph": "graph file (line format or JSON)"}
_TRANSPOSE = {"--transpose": _flag("reverse every edge first")}
_PATH = "path literal 'p1,p2:c1,c2'"
_TESTS = _option("comma separated rational test points")

_COMMANDS = {
    "graph-analyze": (
        "decide the Hausdorff spectrum conditions",
        _leaf(cmd_graph_analyze, _GRAPH, _TRANSPOSE),
    ),
    "graph-orbits": (
        "orbit representatives of the path space",
        _leaf(cmd_graph_orbits, _GRAPH, _TRANSPOSE),
    ),
    "graph-equiv": (
        "shift equivalence of two eventually periodic paths",
        _leaf(
            cmd_graph_equiv,
            _GRAPH,
            {"--x": _option(_PATH, required=True), "--y": _option(_PATH, required=True), **_TRANSPOSE},
        ),
    ),
    "model-green": (
        "the flow model",
        {
            "verify-eq3": (
                "verify the chart translation identity",
                _leaf(
                    cmd_green_verify,
                    {},
                    {"--n-max": _option(f"check n = 0 to N_MAX, at most {MAX_N}", _int_in(0, MAX_N), 20)},
                ),
            ),
        },
    ),
    "model-dyadic": (
        "the dyadic model",
        {
            "demo-c-failure": (
                "the dual-convergence counterexample",
                _leaf(
                    cmd_dyadic_demo,
                    {},
                    {
                        "--n-max": _option(f"list n = 0 to N_MAX, at most {MAX_N}", _int_in(0, MAX_N), 10),
                        "--tests": _TESTS,
                    },
                ),
            ),
            "check-c-on-s": (
                "run an S-space family file",
                _leaf(
                    cmd_dyadic_check_s, {}, {"--family": _option("S-space family file (JSON)", required=True)}
                ),
            ),
        },
    ),
    "model-so3": (
        "the rotation model",
        {
            "conj-test": (
                "random conjugation residuals",
                _leaf(
                    cmd_so3_conj,
                    {},
                    {
                        "--trials": _option(
                            f"number of random trials, 1 to {MAX_TRIALS}", _int_in(1, MAX_TRIALS), 1000
                        ),
                        "--seed": _option(f"random seed (default: ${SEED_ENV}, else 0)", _int_in(0)),
                        "--tol": _option("largest residual that passes", _tolerance, 1e-10),
                    },
                ),
            ),
            "spectrum": (
                "orbit invariants of a character datum",
                _leaf(
                    cmd_so3_spectrum,
                    {},
                    {
                        "--v": _option("base point 'x,y,z'", required=True),
                        "--k": _option("integer index of the character", int, required=True),
                    },
                ),
            ),
        },
    ),
    "check-family": (
        "run a family file (dual or S space)",
        _leaf(
            cmd_check_family,
            {"family": "family file (JSON)"},
            {
                "--tests": _TESTS,
                "--truncate": _option("non-certifying probe index", int),
                "--tol": _option("tolerance for --truncate", _tolerance, 1e-9),
            },
        ),
    ),
}

PROG = "groupoid-spectrum"


def _add_subparsers(subparsers, entries: dict) -> None:
    """Add each command or verb of ``entries`` (a level of the table) as a subparser with its arguments."""
    for name, (summary, spec) in entries.items():
        parser = subparsers.add_parser(name, help=summary)
        if type(spec) is dict:  # nested verbs
            _add_subparsers(parser.add_subparsers(dest="verb", required=True), spec)
            continue
        handler, positionals, options = spec
        for positional, text in positionals.items():
            parser.add_argument(positional, help=text)
        output = parser.add_mutually_exclusive_group()
        for flag, (dest, kind, default, required, text) in options.items():
            add = output.add_argument if flag in _OUTPUT else parser.add_argument
            if type(kind) is bool:
                add(flag, action="store_true" if kind else "store_false", dest=dest, help=text)
            else:
                add(flag, dest=dest, type=kind, default=default, required=required, help=text)
        parser.set_defaults(json=False, func=handler)


@cache
def build_parser():
    """The full argument parser, built from ``_COMMANDS`` once per process.

    ``_parse`` runs it on every call that ``_read_plain`` passes on: help,
    usage errors and the spellings only argparse reads, so help, usage,
    error messages and exit codes are those of this one argparse tree.
    argparse is imported here, so a plain call never loads it.

    Sharing it is safe because ``parse_args`` never mutates the parser, and
    argparse looks up ``sys.stdout`` and ``sys.stderr`` when it writes help,
    usage and errors, not when the parser is built, so redirected streams
    still capture them.  ``prog`` is fixed.  Callers must not modify the
    returned parser.  The ``func`` defaults are the table's ``cmd_*``
    handlers, bound when the module is imported, so replacing ``cli.cmd_*``
    afterwards has no effect on it (nor on ``_read_plain``).
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Exact checks for Hausdorff spectra of groupoid algebras",
    )
    _add_subparsers(parser.add_subparsers(dest="command", required=True), _COMMANDS)
    return parser


def _read_plain(argv) -> SimpleNamespace | None:
    """A call in plain form read from ``_COMMANDS``, as ``build_parser().parse_args`` reads it; else None.

    A plain call names a command (and its verb), then gives its positionals
    and each option spelled exactly and at most once, as ``--opt value``
    with a value not starting with ``-`` or as ``--opt=value``; every
    required option and positional is there, and every type function takes
    its value.  Every other call (help, errors, abbreviations, ``--``,
    repeats, ``--json --text``, a value starting with ``-`` given without
    ``=``) is left to the full parser.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    values = {"command": argv[0]}
    leaf, start = command[1], 1
    if type(leaf) is dict:  # nested verbs
        verb = leaf.get(argv[1]) if len(argv) > 1 else None
        if verb is None:
            return None
        values["verb"], leaf, start = argv[1], verb[1], 2
    handler, positionals, options = leaf
    names = iter(positionals)  # the positionals still to fill, in order
    tokens = iter(argv[start:])
    for token in tokens:
        if token[:1] != "-":
            name = next(names, None)
            if name is None:
                return None
            values[name] = token
            continue
        flag, given, value = token.partition("=")
        option = options.get(flag)
        if option is None or option[0] in values:  # unknown, abbreviated, repeated, or both of a pair
            return None
        dest, kind = option[:2]
        if type(kind) is bool:
            if given:
                return None
            values[dest] = kind
            continue
        if not given:
            value = next(tokens, "-")  # a missing value reads as one starting with "-"
            if value[:1] == "-":
                return None
        elif value == "--":  # argparse drops a "--" value, even after "="
            return None
        if kind is not None:
            try:
                value = kind(value)
            except Exception:  # what a type refuses, argparse refuses again and reports
                return None
        values[dest] = value
    if next(names, None) is not None:
        return None
    for dest, _, default, required, _ in options.values():
        if dest not in values:
            if required:
                return None
            values[dest] = default
    values["func"] = handler
    return SimpleNamespace(**values)


def _parse(argv):
    """The arguments of one call: ``_read_plain``'s namespace, or else ``build_parser().parse_args(argv)``.

    argparse drops a ``--`` value, even after ``=``, and stores ``[]`` without
    calling the option's type; a value option holding a list is refused as
    one given no value.
    """
    args = _read_plain(argv)
    if args is not None:
        return args
    parser = build_parser()
    args = parser.parse_args(argv)
    leaf = _COMMANDS[args.command][1]
    if type(leaf) is dict:  # nested verbs
        leaf = leaf[args.verb][1]
    for flag, (dest, kind, *_) in leaf[2].items():
        if type(kind) is not bool and type(getattr(args, dest)) is list:
            parser.error(f"argument {flag}: expected one argument")
    return args


EXIT_BROKEN_PIPE = 128 + 13  # shell status of a process ended by SIGPIPE


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        for module in _USES[args.command]:
            _bind(module)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at shutdown
        return code
    except BrokenPipeError:
        # The reader stopped early (`| head`).  Send what is still buffered to
        # the null device, so the flush at shutdown cannot fail again, and
        # exit as a process ended by SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - internal errors
        import traceback

        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
