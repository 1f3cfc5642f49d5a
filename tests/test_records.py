"""The record types' semantics: construction, fields, defaults, equality,
hashing, repr, immutability, pickling, and the order of patterns."""

import copy
import itertools
import operator
import pickle
import random

import pytest

from patternkit.algebra import ClassificationFlags
from patternkit.classifier import CensusRow, ClassificationReport
from patternkit.constructions import (
    ApproxOracle,
    BiArrayFunctional,
    CheckResult,
    ConstructionTrace,
    PrefixFunctional,
    TraceEvent,
    VerifyReport,
)
from patternkit.core import (
    FiniteColoring,
    PartialColoring,
    Pattern,
    StableColoring,
    _coded,
)
from patternkit.forcing import BoundedPredicate
from patternkit.lemmas import SuiteResult
from patternkit.stabilize import BinaryTree, Condition, GreedySplit
from conftest import all_patterns


def _never(F):
    return False


FLAGS = ClassificationFlags(divergent=True, irreducible=False, merging0=True, merging1=False)
P = Pattern(3, (0, 1, 0))

# (type, field values in declaration order, one field changed, hashable, frozen)
RECORDS = [
    (FiniteColoring, dict(window=3, rows=(2, 1, 0)), ("rows", (4, 0, 1)), True, True),
    (StableColoring, dict(base=FiniteColoring(3, (2, 1, 0)), limit=(0, 1, 0)),
     ("limit", (1, 1, 0)), True, True),
    (PartialColoring, dict(assignments={1: 0, 3: 1}), ("assignments", {1: 1}), True, True),
    (ClassificationFlags, dict(divergent=True, irreducible=False, merging0=True,
                               merging1=False), ("merging1", True), True, True),
    (ClassificationReport, dict(pattern=P, flags=FLAGS, verdict_omega_hyp=True,
                                verdict_one_2dim=False, verdict_omega_2dim=False,
                                witnesses={"omega_hyp": "3:010"}),
     ("verdict_one_2dim", True), False, True),
    (CensusRow, dict(pattern=P, flags=FLAGS, omega_hyp=True, one_2dim=False,
                     omega_2dim=False), ("omega_2dim", True), True, True),
    (Condition, dict(stem=frozenset({1}), reservoir=frozenset({2, 3}),
                     witness=PartialColoring({1: 0})),
     ("reservoir", frozenset({3})), True, True),
    (GreedySplit, dict(side="p", elements=frozenset({0, 2}), verified=True, fallback=False),
     ("side", "q"), True, True),
    (BinaryTree, dict(nodes=frozenset({""})), ("nodes", frozenset({"", "1"})), True, True),
    (ApproxOracle, dict(entries=((0, 1, frozenset({0})),)), ("entries", ()), True, True),
    (PrefixFunctional, dict(entries=(("01", 2, frozenset({3})),)), ("entries", ()),
     True, True),
    (BiArrayFunctional, dict(primary=((0, 1, frozenset({2})),),
                             secondary=((0, 2, 3, frozenset({4})),)),
     ("secondary", ()), True, True),
    (TraceEvent, dict(stage=4, kind="act", requirement="R[0,0]",
                      detail=(("block", "1,2"),)), ("stage", 5), True, True),
    (ConstructionTrace, dict(builder="dnc", stages=3, events=(TraceEvent(0, "act", "R"),),
                             final={"markers": {}}, aux={}), ("stages", 4), False, False),
    (CheckResult, dict(name="p1", passed=False, stage=3, message="pair fails"),
     ("passed", True), True, True),
    (VerifyReport, dict(results=(CheckResult("p1", True),)), ("results", ()), True, True),
    (BoundedPredicate, dict(name="false", fn=_never), ("name", "never"), True, True),
    (SuiteResult, dict(name="duality", runs=3, counterexamples=("3:010",), skipped=False,
                       exhausted=True), ("runs", 4), True, True),
]
IDS = [case[0].__name__ for case in RECORDS]


@pytest.mark.parametrize("cls, fields, change, hashable, frozen", RECORDS, ids=IDS)
class TestRecord:
    def test_construction_by_keyword_and_position(self, cls, fields, change, hashable,
                                                  frozen):
        rec = cls(**fields)
        for name, value in fields.items():
            assert getattr(rec, name) == value
        assert cls(*fields.values()) == rec

    def test_equality(self, cls, fields, change, hashable, frozen):
        rec = cls(**fields)
        assert rec == cls(**fields) and not rec != cls(**fields)
        other = cls(**dict(fields, **dict([change])))
        assert rec != other and not rec == other
        assert rec != object()

    def test_hash(self, cls, fields, change, hashable, frozen):
        rec = cls(**fields)
        if not hashable:
            with pytest.raises(TypeError):
                hash(rec)
            return
        values = tuple(fields.values())
        if cls is PartialColoring:  # its own hash: the sorted assignments
            values = tuple(sorted(fields["assignments"].items()))
        assert hash(rec) == hash(values) == hash(cls(**fields))

    def test_repr(self, cls, fields, change, hashable, frozen):
        shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(cls(**fields)) == f"{cls.__name__}({shown})"

    def test_field_assignment(self, cls, fields, change, hashable, frozen):
        rec = cls(**fields)
        name, value = change
        if frozen:
            for field in fields:
                with pytest.raises(AttributeError):
                    setattr(rec, field, value)
            assert getattr(rec, name) == fields[name]
        else:
            setattr(rec, name, value)
            assert getattr(rec, name) == value

    def test_pickle_and_copy(self, cls, fields, change, hashable, frozen):
        rec = cls(**fields)
        assert copy.copy(rec) == rec and copy.deepcopy(rec) == rec
        if cls is not BoundedPredicate:  # its predicate may be a lambda
            assert pickle.loads(pickle.dumps(rec)) == rec


def test_defaults():
    assert PartialColoring().assignments == {}
    assert BiArrayFunctional() == BiArrayFunctional(primary=(), secondary=())
    assert TraceEvent(0, "act", "R").detail == ()
    assert CheckResult("p1", True) == CheckResult("p1", True, stage=None, message="")
    assert SuiteResult("duality", 0) == SuiteResult("duality", 0, counterexamples=(),
                                                    skipped=False, exhausted=False)
    # the mutable defaults are fresh per record
    a, b = ConstructionTrace("dnc", 1, ()), ConstructionTrace("dnc", 1, ())
    assert a.final == a.aux == {} and a.final is not b.final and a.aux is not b.aux
    r = ClassificationReport(P, FLAGS, False, False, False)
    assert r.witnesses == {}
    assert r.witnesses is not ClassificationReport(P, FLAGS, False, False, False).witnesses


def test_derived_properties():
    assert FLAGS.merging is False
    assert SuiteResult("duality", 3).passed
    assert not SuiteResult("duality", 3, exhausted=True).passed
    assert VerifyReport((CheckResult("a", True),)).passed
    assert not VerifyReport((CheckResult("a", True), CheckResult("b", False))).passed
    assert TraceEvent(0, "act", "R", (("block", "1"),)).get("block") == "1"


ALL_PATTERNS = [p for size in range(1, 5) for p in all_patterns(size)]


class TestPattern:
    def test_fields_repr_hash(self):
        p = Pattern(size=3, bits=(0, 1, 0))
        assert (p.size, p.code, p.bits) == (3, 2, (0, 1, 0))
        assert repr(p) == "Pattern('3:010')"
        assert p == Pattern(3, (0, 1, 0)) == _coded(3, 2) and p != _coded(3, 3)
        assert hash(p) == hash((3, 2))
        for name in ("size", "code"):
            with pytest.raises(AttributeError):
                setattr(p, name, 1)
        assert pickle.loads(pickle.dumps(p)) == p and copy.copy(p) == p

    def test_sorting_is_size_then_code(self):
        shuffled = ALL_PATTERNS[:]
        random.Random(18).shuffle(shuffled)
        assert sorted(shuffled) == ALL_PATTERNS
        assert min(shuffled) == ALL_PATTERNS[0] and max(shuffled) == ALL_PATTERNS[-1]

    def test_comparisons_agree_with_tuples(self):
        for p, q in itertools.product(ALL_PATTERNS, repeat=2):
            a, b = (p.size, p.code), (q.size, q.code)
            assert (p < q, p <= q, p > q, p >= q, p == q, p != q) == \
                (a < b, a <= b, a > b, a >= b, a == b, a != b)

    def test_tuple_comparison_raises(self):
        p = _coded(2, 1)
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(p, (2, 1))
        assert p != (2, 1) and not p == (2, 1)
