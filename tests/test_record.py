"""Value records: frozen, compared and hashed by field values, revalidated by ``replace``."""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction
from operator import attrgetter

import pytest

import groupoid_spectrum
import helpers
from groupoid_spectrum._record import Record
from groupoid_spectrum.convergence import (
    CharSeqSpec,
    SConditionVerdict,
    SElemSeqSpec,
    condition_c_check,
    parse_family,
)
from groupoid_spectrum.digraph import CycleRep, Edge, Violation
from groupoid_spectrum.exact import DyadicSeq
from groupoid_spectrum.models import ArrowDyadic, CharQ, CharSO3, GroupH, PointY, SElem
from groupoid_spectrum.spectrum import EventualPath, FellLimit, PeriodFamily, decide_hausdorff_spectrum
from oracle import oracle_suite

for module in pkgutil.iter_modules(groupoid_spectrum.__path__):  # so every record class is defined
    importlib.import_module(f"groupoid_spectrum.{module.name}")

LOOP = Edge("L", "a", "a")
OUT = Edge("t", "a", "b")  # leaves the loop: alone, it does not close up


def samples() -> dict[type, Record]:
    """One record of every class, built the way the package builds them where it can."""
    graph = helpers.graph_loop_with_entry()
    verdict = decide_hausdorff_spectrum(graph)
    spec = parse_family(helpers.DUAL_FAMILY)
    family, chi_spec, chi, omega = spec.family, spec.seq, spec.limit_chi, spec.limit_omega
    condition_c = condition_c_check(family, chi_spec, chi, omega)
    point = PointY(0, 1)
    s, t = SElem(Fraction(1, 2), point), SElem(Fraction(1, 2), point)
    records = [
        graph,
        verdict,
        verdict.condition_a,
        verdict.condition_b,
        condition_c,
        condition_c.chi_report,
        family,
        family.base,
        chi_spec,
        chi,
        family.q,
        family.n,
        LOOP,
        Violation("empty-graph", "", "graph has no vertices"),
        CycleRep((LOOP,)),
        EventualPath((), (LOOP,)),
        PeriodFamily((2, 4), (1,)),
        FellLimit(True, 2),
        point,
        GroupH(Fraction(1, 2), 1),
        ArrowDyadic(GroupH(Fraction(1, 2), 1), point),
        s,
        CharSO3((1.0, 0.0, 0.0), 2),
        SElemSeqSpec(family.base, DyadicSeq.constant(0)),
        SConditionVerdict(True, "zero-parameter", s, t, {"note": "a note"}),
        spec,
        *oracle_suite(graph, (1,)),
    ]
    return {type(r): r for r in records}


SAMPLES = samples()

# for each record class that validates: field changes it must refuse, and the message
REFUSED = {
    CycleRep: ({"edges": (OUT,)}, "cycle does not close up"),
    EventualPath: ({"cycle": ()}, "cycle must contain at least one edge"),
    PeriodFamily: ({"tail": ()}, "repeating tail pattern must be nonempty"),
    PointY: ({"branch": -2}, "branch must be a chart index >= 0 or LINE_BRANCH"),
    GroupH: ({"q": Fraction(1, 3)}, "1/3 is not a dyadic rational"),
    SElem: ({"r": Fraction(1, 3)}, "1/3 is not a dyadic rational"),
}


def test_every_record_class_has_a_sample():
    assert set(Record.__subclasses__()) == set(SAMPLES)


by_name = attrgetter("__qualname__")


@pytest.mark.parametrize("cls", sorted(SAMPLES, key=by_name), ids=by_name)
def test_record_semantics(cls):
    record = SAMPLES[cls]
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        delattr(record, name)

    values = {f: getattr(record, f) for f in record._fields}
    twin = cls(**values)
    assert twin is not record and twin == record and not twin != record
    assert cls(*values.values()) == record
    try:
        hash(tuple(values.values()))
    except TypeError:  # a dict among the fields, as in a report's details: unhashable, as before
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)
    assert repr(twin) == repr(record) and repr(record).startswith(f"{cls.__qualname__}({name}=")

    other = type("Other", (cls,), {})(**values)  # another class, the same values
    assert other != record and record != other and not other == record

    copy = record.replace()
    assert copy is not record and copy == record
    if cls in REFUSED:
        changes, message = REFUSED[cls]
        with pytest.raises(ValueError, match=f"^{message}$"):
            record.replace(**changes)


@pytest.mark.parametrize("cls", sorted(SAMPLES, key=by_name), ids=by_name)
def test_copy_and_pickle_rebuild_the_record(cls):
    record = SAMPLES[cls]
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record
        assert repr(twin) == repr(record)
        with pytest.raises(AttributeError):  # still frozen
            setattr(twin, record._fields[0], None)


def test_copies_are_built_by_the_constructor():
    seq = DyadicSeq(1, -1, 0, 0)
    assert copy.deepcopy(seq) == seq
    # the constructor runs again: the copy of a cycle stored past it, unrotated, starts at its least id
    rotated = CycleRep((Edge("b", "x", "y"), Edge("a", "y", "x")))
    forced = object.__new__(CycleRep)
    Record.__init__(forced, tuple(reversed(rotated.edges)))
    assert forced.edges[0].id == "b" and copy.copy(forced).edges[0].id == "a"
    # cached views are not carried over
    report = decide_hausdorff_spectrum(helpers.graph_loop_with_entry()).condition_a
    report.cycles
    assert "cycles" in report.__dict__
    for twin in (copy.copy(report), pickle.loads(pickle.dumps(report))):
        assert "cycles" not in twin.__dict__ and twin.cycles == report.cycles


def test_replace_normalizes_again():
    seq = DyadicSeq(1, -1, 0, 0)
    assert seq.replace(beta=0) == DyadicSeq.constant(1)
    assert CycleRep((Edge("b", "x", "y"), Edge("a", "y", "x"))).replace().edges[0].id == "a"
    assert CharQ(Fraction(1, 2), PointY(0, 0)).replace(r=3).r == Fraction(3)


def test_same_fields_other_class_is_not_equal():
    point = PointY(0, 0)
    assert CharQ(Fraction(1, 2), point) != SElem(Fraction(1, 2), point)
    base = parse_family(helpers.DUAL_FAMILY).family.base
    assert CharSeqSpec(base, DyadicSeq.constant(1)) != SElemSeqSpec(base, DyadicSeq.constant(1))


def test_constructor_refuses_a_wrong_call():
    usage = r"^Edge\(id, src, rng\) "
    with pytest.raises(TypeError, match=usage + "takes 3 values, got 2$"):
        Edge("e", "a")
    with pytest.raises(TypeError, match=usage + "takes 3 values, got 4$"):
        Edge("e", "a", "b", "c")
    with pytest.raises(TypeError, match=usage + "takes 3 values, got 4$"):
        Edge("e", "a", "b", "c", id="f")
    with pytest.raises(TypeError, match=usage + "has no field 'dst'$"):
        Edge("e", "a", dst="b")
    with pytest.raises(TypeError, match=usage + "is missing field 'rng'$"):
        Edge("e", src="a")
    with pytest.raises(TypeError, match=usage + "got field 'id' twice$"):
        Edge("e", "a", "b", id="f")
    with pytest.raises(TypeError, match=usage + "got field 'src' twice$"):
        Edge("e", "a", src="a", rng="b")
    with pytest.raises(TypeError, match=r"^FellLimit\(convergent, period\) is missing field 'convergent'$"):
        FellLimit(period=2)
    assert Edge("e", rng="b", src="a") == Edge(id="e", src="a", rng="b") == Edge("e", "a", "b")

