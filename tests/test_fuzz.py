"""Hypothesis fuzz of the inputs: any input gives a report or exits 2.

Graph files, family files and argument vectors are generated and run through
``cli.main`` in this process, as a user's command line would run them, with
an ASCII stdout that refuses every other character, as under a C locale.
Graph ids are drawn partly outside ASCII.  The invariant is the CLI's exit
contract: exit 0 with a report (strict JSON under ``--json``), or exit 2 with
a message on stderr, within the example deadline; never exit 1 and never a
traceback.  Sizes stay small (graphs of a few vertices, ``--n-max`` and
``--trials`` below 40, whose reports grow with them, or above their limits,
where they must exit 2), so the whole module adds about two seconds to the
suite.
"""

import json
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from groupoid_spectrum.cli import _COMMANDS, MAX_N, MAX_TRIALS, PROG, _read_plain, build_parser
from helpers import DUAL_FAMILY, S_FAMILY, run_full_parser, run_main, strict_json

# derandomized, so the suite runs the same examples every time
FUZZ = settings(
    max_examples=50,
    deadline=timedelta(seconds=2),
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_contract(argv: list[str], as_json: bool = True) -> None:
    """Exit 0 with a report, or exit 2 with an error line or a report of the violations."""
    code, out, err = run_main(argv, ascii_stdout=True)
    assert "Traceback" not in err, (argv, err)
    assert code in (0, 2), (argv, code, err)
    if code == 2 and not out:
        assert err.strip(), argv  # a message, not a silent refusal
    elif as_json:
        strict_json(out)


edge_ids = st.sampled_from(["e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7"])
json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)
)
json_value = st.recursive(
    json_leaf,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def graph_commands(path: str, x: str, y: str) -> list[tuple[list[str], bool]]:
    """Each command and whether it writes JSON."""
    return [
        (["graph-analyze", path], False),
        (["graph-analyze", path, "--json"], True),
        (["graph-orbits", path, "--transpose", "--json"], True),
        (["graph-equiv", path, "--x", x, "--y", y, "--json"], True),
    ]


@st.composite
def graphs(draw):
    """A validated graph on up to four vertices: an in-edge for each vertex, then more edges.

    Some vertex ids, and the edge ids of some graphs, are not ASCII.
    """
    vertices = draw(st.lists(st.sampled_from(["a", "b", "é", "ж", "d"]), min_size=1, max_size=4, unique=True))
    vertex = st.sampled_from(vertices)
    arcs = [(draw(vertex), v) for v in vertices]
    arcs += draw(st.lists(st.tuples(vertex, vertex), max_size=5))
    prefix = draw(st.sampled_from(["e", "e", "é"]))
    return vertices, [(f"{prefix}{k}", s, r) for k, (s, r) in enumerate(arcs)]


def csv(part):
    return st.lists(part, max_size=4).map(",".join)


literal_pairs = st.builds("{}:{}".format, csv(edge_ids | st.just("")), csv(edge_ids | st.just("")))
path_literals = st.one_of(literal_pairs, st.text(max_size=6))
junk_lines = st.one_of(
    st.sampled_from(["", "# comment", "v", "v a", "e e0 a a", "e e9 a z", "e e9 a", "x a", "v a b"]),
    st.text(max_size=10),
)
insertions = st.lists(st.tuples(st.integers(0, 12), junk_lines), max_size=2)


class TestGraphFiles:
    @FUZZ
    @given(graph=graphs(), junk=insertions, x=path_literals, y=path_literals)
    def test_line_format(self, workdir, graph, junk, x, y):
        vertices, edges = graph
        lines = [f"v {v}" for v in vertices] + [f"e {e} {s} {r}" for e, s, r in edges]
        for at, line in junk:
            lines.insert(at, line)
        path = workdir / "g.graph"
        path.write_text("\n".join(lines), encoding="utf-8", errors="surrogatepass")
        for argv, as_json in graph_commands(str(path), x, y):
            assert_contract(argv, as_json)

    @FUZZ
    @given(graph=graphs(), changes=st.lists(st.tuples(st.integers(0, 12), json_value), max_size=2))
    def test_json_format(self, workdir, graph, changes):
        vertices, edges = graph
        obj = {"vertices": vertices, "edges": [{"id": e, "src": s, "rng": r} for e, s, r in edges]}
        # each change replaces one item: the whole object, a list, a vertex or an edge field
        slots = [(obj, "vertices"), (obj, "edges")]
        slots += [(vertices, k) for k in range(len(vertices))]
        slots += [(edge, field) for edge in obj["edges"] for field in ("id", "src", "rng")]
        for at, value in changes:
            if at == 0:
                obj = value
            else:
                owner, key = slots[at % len(slots)]
                owner[key] = value
        path = workdir / "g.json"
        path.write_text(json.dumps(obj), encoding="utf-8", errors="surrogatepass")
        for argv, as_json in graph_commands(str(path), ":e0", "e1:e0"):
            assert_contract(argv, as_json)

    @FUZZ
    @given(
        data=st.binary(max_size=24)
        | st.text(max_size=24).map(lambda t: ("{" + t).encode("utf-8", "surrogatepass"))
    )
    def test_raw_bytes(self, workdir, data):
        path = workdir / "raw.graph"
        path.write_bytes(data)
        for argv, as_json in graph_commands(str(path), ":e0", ":e0"):
            assert_contract(argv, as_json)


def _key_paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _key_paths(value, prefix + (key,))


KEY_PATHS = sorted(set(_key_paths(DUAL_FAMILY)) | set(_key_paths(S_FAMILY)))[1:]
small = st.integers(-12, 12)
catalog_values = st.one_of(
    st.sampled_from(["0", "1", "-3/4", "1/0", "0.5", "1e9", "i", "affine:2*i+1", "affine:-1*i+0", "affine:x"]),
    st.builds("affine:{}*i+{}".format, small, small),
    st.lists(st.one_of(small, st.builds("{}/{}".format, small, small)), min_size=4, max_size=4),
    small,
)
mutations = st.lists(
    st.tuples(st.sampled_from(KEY_PATHS), st.one_of(st.none(), catalog_values, json_value)),
    min_size=1,
    max_size=3,
)


def mutate(template: dict, changes) -> dict:
    """``template`` with each path set to a value (or deleted, for None)."""
    obj = json.loads(json.dumps(template))
    for path, value in changes:
        owner = obj
        for key in path[:-1]:
            owner = owner.get(key) if isinstance(owner, dict) else None
        if not isinstance(owner, dict):
            continue
        if value is None:
            owner.pop(path[-1], None)
        else:
            owner[path[-1]] = value
    return obj


class TestFamilyFiles:
    @FUZZ
    @given(
        template=st.sampled_from([DUAL_FAMILY, S_FAMILY]),
        changes=mutations,
        truncate=st.one_of(st.none(), st.integers(), st.integers(0, 600)),
    )
    def test_mutated_family(self, workdir, template, changes, truncate):
        path = workdir / "family.json"
        path.write_text(json.dumps(mutate(template, changes)), encoding="utf-8", errors="surrogatepass")
        assert_contract(["check-family", str(path), "--json"])
        assert_contract(["model-dyadic", "check-c-on-s", "--family", str(path), "--json"])
        if truncate is not None:
            assert_contract(["check-family", str(path), "--truncate", str(truncate), "--json"])


def as_text(strategy):
    """Mostly the strategy's values as text, sometimes any text."""
    return st.one_of(strategy.map(str), strategy.map(str), st.text(max_size=6))


floats_text = st.one_of(st.floats().map(repr), st.sampled_from(["1e400", "-0", "1_0", ""]))
rational_text = st.one_of(
    st.builds("{}/{}".format, small, small), small.map(str), floats_text, st.text(max_size=5)
)
vectors = st.lists(floats_text, min_size=3, max_size=3).map(",".join) | csv(floats_text)
above_limits = st.integers(MAX_TRIALS + 1, 10**30)  # above both count limits


def _leaves():
    """Each leaf of the command table, with the command (and verb) that names it."""
    for command, (_, spec) in _COMMANDS.items():
        if type(spec) is dict:  # nested verbs
            for verb, (_, leaf) in spec.items():
                yield [command, verb], leaf
        else:
            yield [command], spec


LEAVES = list(_leaves())
# values drawn in place of a well-formed one: the separator, a negative number,
# a short option and the empty string; the separator most, since argparse
# drops it even after "="
odd_values = st.just("--") | st.sampled_from(["--", "-1", "-x", ""])


@st.composite
def argvs(draw, workdir):
    """A call of a leaf of ``cli._COMMANDS``, with its positionals and options, sometimes broken.

    The grammar is the command table's: every command and verb, its
    positionals and its options, each value drawn by its option's kind (or,
    for files, path literals, vectors and test points, by its dest), so a new
    option is fuzzed as soon as the table declares it.  A broken call has
    values of any form, ``odd_values``, prefix abbreviations, a repeated
    option or both flags of the output pair, or a junk token.

    Hypothesis favours the least value of a draw, so that value picks the well-formed branch.
    Returns the argv, whether it asks for JSON, and its leftover: in about one draw in five,
    every value is one the command's parser takes, and an unknown token is appended, which is
    returned as the leftover (None otherwise).
    """
    leftover = draw(st.integers(0, 4)) == 4

    def file(*names):  # a right file; else another, or none
        files = [str(workdir / f) for f in ("funnel.graph", "dual.json", "s.json", "missing")]
        right = st.sampled_from([str(workdir / name) for name in names])
        return right, st.sampled_from(files) | st.text(max_size=6)

    # per dest, or else per kind: a value the parser takes, and any value
    by_dest = {
        "graph": file("funnel.graph"),
        "family": file("dual.json", "s.json"),
        "x": (literal_pairs, path_literals),
        "y": (literal_pairs, path_literals),
        "v": (st.lists(st.floats(0, 9).map(repr), min_size=3, max_size=3).map(",".join), vectors),
        "tests": (csv(st.builds("{}/{}".format, st.integers(0, 12), st.integers(1, 12))), csv(rational_text)),
    }
    by_kind = {
        None: (st.text(max_size=6).filter(lambda text: text[:1] != "-"), st.text(max_size=6)),
        int: (st.integers(0, 99).map(str), as_text(st.integers())),
    }
    by_type_name = {  # the table's own type functions: bounded counts and tolerances
        "int": (st.integers(1, 39).map(str), as_text(st.integers(-3, 39) | above_limits)),
        "float": (st.floats(0, 1).map(repr), floats_text),
    }

    def value(dest, kind):  # the leftover branch draws only values the parser takes
        if dest in by_dest:
            valid, anything = by_dest[dest]
        else:
            valid, anything = by_kind[kind] if kind in by_kind else by_type_name[kind.__name__]
        return valid if leftover else st.one_of(valid, anything, odd_values)

    command, (_, positionals, options) = draw(st.sampled_from(LEAVES))
    argv = command + [draw(value(name, None)) for name in positionals]
    flags = {}  # the flags of each dest: an output pair shares one
    for flag, (dest, kind, _, required, _) in options.items():
        flags.setdefault(dest, []).append((flag, dest, kind, required))
    given = []
    for choices in flags.values():
        option = draw(st.sampled_from(choices))
        if leftover and option[3] or draw(st.integers(0, 7)) < (7 if option[3] else 4):
            given.append(option)
    if not leftover and draw(st.integers(0, 7)) == 7:  # a repeat, or the other of a pair
        given.append(draw(st.sampled_from([option for choices in flags.values() for option in choices])))
    as_json = False
    for flag, dest, kind, _ in draw(st.permutations(given)):
        if not leftover and len(flag) > 3 and draw(st.integers(0, 7)) == 7:  # a prefix abbreviation
            flag = flag[: draw(st.integers(3, len(flag) - 1))]
        if type(kind) is bool:
            argv.append(flag)
            as_json = kind if dest == "json" else as_json
        else:
            text = draw(value(dest, kind))
            # the "--opt=value" spelling; always for "--", which given apart would only end the options
            if text == "--" or draw(st.booleans()):
                argv.append(f"{flag}={text}")
            else:
                argv += [flag, text]
    if not leftover and draw(st.integers(0, 3)) == 3:
        argv.insert(
            draw(st.integers(0, len(argv))),
            draw(st.sampled_from(["--nope", "-x", "--", "extra", "--json", "--text"])),
        )
    if not leftover:
        return argv, as_json, None
    extra = draw(st.sampled_from(["--nope", "-x", "extra", "--nope=1", "é"]))
    return argv + [extra], as_json, extra


class TestArguments:
    @pytest.fixture(scope="class", autouse=True)
    def inputs(self, workdir):
        (workdir / "funnel.graph").write_text("v a\nv b\nv t\ne La a a\ne Lb b b\ne f a t\ne g b t\n")
        (workdir / "dual.json").write_text(json.dumps(DUAL_FAMILY))
        (workdir / "s.json").write_text(json.dumps(S_FAMILY))

    @FUZZ
    @given(data=st.data())
    def test_argv(self, workdir, data):
        argv, as_json, extra = data.draw(argvs(workdir))
        if extra is None:
            assert_contract(argv, as_json and "--text" not in argv)
        else:  # the full parser's usage and error, as under build_parser().parse_args
            error = f"{PROG}: error: unrecognized arguments: {extra}\n"
            assert run_main(argv, ascii_stdout=True) == (2, "", build_parser().format_usage() + error), argv

    @FUZZ
    @given(data=st.data())
    def test_dispatch_matches_the_full_parser(self, workdir, data):
        argv, _, _ = data.draw(argvs(workdir))
        assert run_main(argv, ascii_stdout=True) == run_full_parser(argv, ascii_stdout=True), argv

    @FUZZ
    @given(data=st.data())
    def test_plain_calls_read_the_full_parsers_namespace(self, workdir, data):
        argv, _, _ = data.draw(argvs(workdir))
        args = _read_plain(argv)
        if args is not None:  # any other argv is the full parser's (the test above)
            assert vars(args) == vars(build_parser().parse_args(argv)), argv


class TestCountLimits:
    @FUZZ
    @given(
        command=st.sampled_from(
            [
                (["model-green", "verify-eq3", "--n-max"], MAX_N),
                (["model-dyadic", "demo-c-failure", "--n-max"], MAX_N),
                (["model-so3", "conj-test", "--trials"], MAX_TRIALS),
            ]
        ),
        excess=st.integers(1, 10**30),
        as_json=st.booleans(),
    )
    def test_counts_above_the_limit_exit_2(self, command, excess, as_json):
        argv, limit = command
        count = str(limit + excess)
        code, out, err = run_main(argv + [count] + (["--json"] if as_json else []))
        assert (code, out) == (2, "")
        assert f"must be at most {limit}, got {count}" in err
