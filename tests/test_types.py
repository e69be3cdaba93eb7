"""The contract of the package's value types.

Values compare and hash by their fields, and formula nodes by their kind
as well.  The named tuples among them also equal a plain tuple of their
fields.  Systems, subformula tables and encodings compare by identity.
No field can be assigned.
"""

import copy
import pickle

import pytest

from ticksynth.encode import Encoding, build_encoding
from ticksynth.ilp import LinearConstraint, SolveResult
from ticksynth.logic import (
    TRUE,
    And,
    Atom,
    Not,
    Or,
    Truth,
    Until,
    parse,
    subformulas,
)
from ticksynth.synth import SynthesisResult, SynthStats
from ticksynth.tdes import (
    PROSPECTIVE,
    REMOTE,
    EventTiming,
    Fragment,
    FragmentError,
    TimedState,
    UntimedDes,
)


def values():
    """One value of each type with the name of one of its fields.  Each
    call builds new objects, so two calls give equal, distinct values."""
    a, b = Atom("a"), Atom("b")
    state = TimedState("s", (("go", 1),))
    stats = SynthStats(3, 2, 1)
    return [
        (a, "name"),
        (Not(a), "operand"),
        (And(a, b), "left"),
        (Or(a, b), "right"),
        (Until(TRUE, b, 1, 2), "upper"),
        (EventTiming(PROSPECTIVE, 1, 2), "upper"),
        (state, "timers"),
        (Fragment((state,), ()), "events"),
        (LinearConstraint(((1, 0),), "<=", 1), "rhs"),
        (SolveResult(True, (1,), 3), "nodes"),
        (stats, "nodes"),
        (SynthesisResult(False, None, None, stats), "found"),
    ]


def one_state_system():
    return UntimedDes({"s"}, set(), {}, "s", {"p"}, {"s": {"p"}}, {})


def test_equal_fields_give_equal_values_with_equal_hashes():
    for (value, _), (twin, _) in zip(values(), values()):
        assert value is not twin
        assert value == twin and not value != twin
        assert hash(value) == hash(twin)
    assert Truth() == TRUE and hash(Truth()) == hash(TRUE)


def test_formula_nodes_compare_by_kind():
    a, b = Atom("a"), Atom("b")
    assert And(a, b) != Or(a, b)
    assert len({And(a, b), Or(a, b)}) == 2
    assert And(a, b) != (a, b)
    assert Not(a) != Atom("a")


def test_named_tuples_equal_plain_tuples():
    assert EventTiming(REMOTE, 1) == (REMOTE, 1, None)
    assert TimedState("s", ()) == ("s", ())
    assert SolveResult(False, None, 7) == (False, None, 7)


def test_fields_cannot_be_assigned():
    for value, field in values():
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    table = subformulas(parse("a & b"))
    for record, field in ((one_state_system(), "initial"), (table, "root")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        TRUE.name = "a"


def test_repr_names_every_field():
    state = TimedState("s", (("go", 1),))
    stats = SynthStats(3, 2, 1)
    expected = [
        (
            Until(TRUE, Atom("b"), 1, 2),
            "Until(left=Truth(), right=Atom(name='b'), lower=1, upper=2)",
        ),
        (
            EventTiming(PROSPECTIVE, 1, 2),
            "EventTiming(kind='prospective', lower=1, upper=2)",
        ),
        (state, "TimedState(activity='s', timers=(('go', 1),))"),
        (Fragment((state,), ()), f"Fragment(states=({state!r},), events=())"),
        (
            LinearConstraint(((1, 0),), "<=", 1),
            "LinearConstraint(terms=((1, 0),), comparator='<=', rhs=1)",
        ),
        (
            SolveResult(True, (1,), 3),
            "SolveResult(feasible=True, assignment=(1,), nodes=3)",
        ),
        (
            SynthesisResult(False, None, None, stats),
            "SynthesisResult(found=False, fragment=None, horizon=None, "
            "statistics=SynthStats(variables=3, constraints=2, nodes=1))",
        ),
        (
            subformulas(Atom("a")),
            "SubformulaTable(entries=(Atom(name='a'),), children=((),), root=0)",
        ),
        (
            one_state_system(),
            "UntimedDes(states=frozenset({'s'}), events=frozenset(), "
            "transitions={}, initial='s', atoms=frozenset({'p'}), "
            "labeling={'s': frozenset({'p'})}, timing={})",
        ),
    ]
    for value, text in expected:
        assert repr(value) == text


def test_subformula_table_length_counts_entries():
    # a, a & a, b and the disjunction; the second a is shared
    table = subformulas(parse("a & a | b"))
    assert len(table) == len(table.entries) == 4


def test_systems_tables_and_encodings_compare_by_identity(
    ring_tdes, phi_two_goals
):
    pairs = [
        (one_state_system(), one_state_system()),
        (subformulas(parse("a")), subformulas(parse("a"))),
        (
            build_encoding(Encoding(ring_tdes, phi_two_goals), 1),
            build_encoding(Encoding(ring_tdes, phi_two_goals), 1),
        ),
    ]
    for first, second in pairs:
        assert first == first and first != second
        assert len({first, second}) == 2


def test_construction_validates_keyword_fields():
    with pytest.raises(ValueError, match="'lower' must be an integer"):
        EventTiming(kind=REMOTE, lower=1.5)
    with pytest.raises(FragmentError, match="do not alternate"):
        Fragment(states=(), events=())
    with pytest.raises(ValueError, match="must satisfy"):
        Until(left=TRUE, right=Atom("a"), lower=3, upper=1)
    for bad in (("a", "b"), ()):
        with pytest.raises(TypeError):
            Atom(*bad)
    with pytest.raises(TypeError):
        Atom("a", name="b")
    with pytest.raises(TypeError):
        Atom(label="a")
    assert Atom(name="a") == Atom("a")


def test_event_timing_make_and_replace_validate():
    timing = EventTiming(REMOTE, 1)
    with pytest.raises(ValueError, match="unknown kind"):
        timing._replace(kind="sometimes")
    with pytest.raises(ValueError, match="must omit 'upper'"):
        EventTiming._make((REMOTE, 1, 2))
    assert timing._replace(lower=2) == EventTiming(REMOTE, 2)


def test_fragment_make_and_replace_validate():
    state = TimedState("s", ())
    fragment = Fragment((state,), ())
    with pytest.raises(FragmentError, match="do not alternate"):
        fragment._replace(events=("tick",))
    with pytest.raises(FragmentError, match="do not alternate"):
        Fragment._make(((), ()))
    assert type(Fragment._make(fragment)) is Fragment


def test_copies_and_pickles_are_equal_values():
    for value, _ in values():
        for twin in (copy.copy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value
