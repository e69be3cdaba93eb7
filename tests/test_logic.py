import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ticksynth.logic import (
    MAX_DEPTH,
    TRUE,
    And,
    Atom,
    Formula,
    FormulaSyntaxError,
    Not,
    Or,
    UnknownAtomError,
    Until,
    evaluate,
    format_formula,
    parse,
    subformulas,
)
from ticksynth.tdes import build_tdes

from helpers import (
    WORKED_ATOMS,
    WORKED_LABELS,
    random_formula,
    random_fragment,
    random_system,
    reference_eval,
    untimed_until_holds,
    worked_example_fragment,
)


# --- parsing -------------------------------------------------------------------

def test_parse_conjunction_of_bounded_reach_goals():
    node = parse("F[1,5] ap2 & F[1,5] ap4")
    assert node == And(
        Until(TRUE, Atom("ap2"), 1, 5), Until(TRUE, Atom("ap4"), 1, 5)
    )


def test_parse_negation_binds_tighter_than_until():
    node = parse("!ap2 U[3,5] ap3")
    assert node == Until(Not(Atom("ap2")), Atom("ap3"), 3, 5)


def test_parse_globally_expands_to_negated_until():
    assert parse("G[0,2] a") == Not(Until(TRUE, Not(Atom("a")), 0, 2))


def test_parse_boolean_expansions():
    assert parse("false") == Not(TRUE)
    assert parse("a -> b") == Or(Not(Atom("a")), Atom("b"))
    assert parse("a <-> b") == And(
        Or(Not(Atom("a")), Atom("b")), Or(Not(Atom("b")), Atom("a"))
    )


def test_parse_precedence():
    assert parse("a | b & c") == Or(Atom("a"), And(Atom("b"), Atom("c")))
    assert parse("a & b U[0,1] c") == And(
        Atom("a"), Until(Atom("b"), Atom("c"), 0, 1)
    )


def test_parse_until_right_associative():
    node = parse("a U[0,1] b U[2,3] c")
    assert node == Until(
        Atom("a"), Until(Atom("b"), Atom("c"), 2, 3), 0, 1
    )


def test_parse_error_positions():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("a & ")
    assert err.value.position == 4
    with pytest.raises(FormulaSyntaxError):
        parse("(a | b")
    with pytest.raises(FormulaSyntaxError) as err:
        parse("a U[5,2] b")
    assert "empty tick interval" in str(err.value)
    with pytest.raises(FormulaSyntaxError):
        parse("F[1,inf] a")
    with pytest.raises(FormulaSyntaxError):
        parse("F[-1,2] a")
    with pytest.raises(FormulaSyntaxError):
        parse("X a")
    with pytest.raises(FormulaSyntaxError):
        parse("a @ b")
    with pytest.raises(FormulaSyntaxError):
        parse("F a")
    for text, position in (("U", 0), ("a & U", 4), ("(U)", 1)):
        with pytest.raises(FormulaSyntaxError) as err:
            parse(text)
        assert str(err.value) == (
            f"'U' is an operator and needs an operand (at position {position})"
        )


# Texts nesting n levels deep, in the text or in the parsed tree.
DEEP_SHAPES = (
    lambda n: "(" * n + "a" + ")" * n,
    lambda n: "!" * n + "a",
    lambda n: " & ".join(["a"] * (n + 1)),
    lambda n: "a | " * n + "a",
    lambda n: "a U[0,2] " * n + "a",
    lambda n: "F[1,2] " * n + "a",
)


def test_parse_depth_limit():
    for shape in DEEP_SHAPES:
        assert isinstance(parse(shape(MAX_DEPTH)), Formula)
        with pytest.raises(FormulaSyntaxError) as err:
            parse(shape(MAX_DEPTH + 1))
        assert "nests deeper than" in str(err.value)
    # tree depth: each G adds three levels, each <-> three, each -> one
    parse("G[0,1] " * (MAX_DEPTH // 3) + "a")
    with pytest.raises(FormulaSyntaxError):
        parse("G[0,1] " * (MAX_DEPTH // 3 + 1) + "a")
    with pytest.raises(FormulaSyntaxError):
        parse("a <-> " * (MAX_DEPTH // 3 + 1) + "a")
    with pytest.raises(FormulaSyntaxError):
        parse("a -> " * MAX_DEPTH + "a")


def formula_text():
    deep = st.builds(
        lambda shape, n: shape(n),
        st.sampled_from(
            DEEP_SHAPES + (lambda n: "(" * n + "a", lambda n: "!(" * n + "a")
        ),
        st.integers(0, 3 * MAX_DEPTH),
    )
    return st.one_of(
        st.text(alphabet="ab ()!&|-<>UFGX[],0129", max_size=40),
        st.text(max_size=20),
        deep,
        st.tuples(deep, st.text(alphabet="a)!&", max_size=3)).map("".join),
    )


@settings(max_examples=300, deadline=None)
@given(formula_text())
def test_parse_returns_formula_or_syntax_error(text):
    try:
        node = parse(text)
    except FormulaSyntaxError:
        return
    assert isinstance(node, Formula)


def test_until_constructor_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Until(TRUE, Atom("a"), 3, 1)
    with pytest.raises(ValueError):
        Until(TRUE, Atom("a"), -1, 1)
    # True == 1, yet format_formula would print U[True,2], which parse rejects
    with pytest.raises(ValueError):
        Until(TRUE, Atom("a"), True, 2)


# --- printing ------------------------------------------------------------------

def atoms_strategy():
    return st.sampled_from(["a", "b", "c"]).map(Atom)


def formula_strategy():
    return st.recursive(
        st.one_of(atoms_strategy(), st.just(TRUE)),
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda p: And(*p)),
            st.tuples(sub, sub).map(lambda p: Or(*p)),
            st.tuples(sub, sub, st.integers(0, 3), st.integers(0, 3)).map(
                lambda q: Until(q[0], q[1], min(q[2], q[3]), max(q[2], q[3]))
            ),
        ),
        max_leaves=12,
    )


@settings(max_examples=200, deadline=None)
@given(formula_strategy())
def test_print_parse_roundtrip(node):
    assert parse(format_formula(node)) == node


def test_format_examples():
    assert format_formula(parse("a|b&!c")) == "a | b & !c"
    assert format_formula(Until(Until(Atom("a"), Atom("b"), 0, 1), Atom("c"), 2, 3)) \
        == "(a U[0,1] b) U[2,3] c"


# --- subformula table ------------------------------------------------------------

def test_table_single_atom():
    table = subformulas(Atom("a"))
    assert len(table) == 1
    assert table.root == 0


def test_table_shares_equal_subtrees():
    table = subformulas(And(Atom("a"), Atom("a")))
    assert len(table) == 2
    assert table.entries[0] == Atom("a")
    assert table.children[1] == (0, 0)


def test_table_for_two_goal_formula():
    table = subformulas(parse("F[1,5] ap2 & F[1,5] ap4"))
    assert len(table) == 6  # truth and both atoms shared under two untils
    assert table.root == len(table) - 1
    for slot, kids in enumerate(table.children):
        assert all(kid < slot for kid in kids)


# --- evaluation -----------------------------------------------------------------

def test_until_window_on_worked_fragment():
    frag = worked_example_fragment()
    phi = parse("a U[1,3] b")
    assert evaluate(frag, phi, 0, WORKED_LABELS, WORKED_ATOMS)
    assert not evaluate(frag, phi, 1, WORKED_LABELS, WORKED_ATOMS)


def test_truth_holds_everywhere():
    frag = worked_example_fragment()
    for k in range(frag.horizon + 1):
        assert evaluate(frag, TRUE, k, WORKED_LABELS, WORKED_ATOMS)


def test_zero_lower_bound_until_accepts_immediate_witness():
    frag = worked_example_fragment()
    phi = parse("b U[0,3] a")  # witness at the anchor itself, empty prefix
    assert evaluate(frag, phi, 0, WORKED_LABELS, WORKED_ATOMS)


def test_unknown_atom_raises():
    frag = worked_example_fragment()
    with pytest.raises(UnknownAtomError):
        evaluate(frag, Atom("zz"), 0, WORKED_LABELS, WORKED_ATOMS)


def test_out_of_range_position_raises():
    frag = worked_example_fragment()
    with pytest.raises(IndexError):
        evaluate(frag, TRUE, 9, WORKED_LABELS, WORKED_ATOMS)


def _fragment_pool(seed, count=40, max_horizon=6):
    rng = random.Random(seed)
    pool = []
    while len(pool) < count:
        system = random_system(rng)
        graph = build_tdes(system, state_cap=4000)
        frag = random_fragment(rng, graph, rng.randint(1, max_horizon))
        if frag is not None:
            pool.append((system, graph, frag))
    return pool


def test_memoized_evaluator_matches_reference():
    rng = random.Random(23)
    for system, _, frag in _fragment_pool(23):
        atoms = sorted(system.atoms)
        for _ in range(3):
            phi = random_formula(rng, atoms, frag.horizon)
            for k in range(frag.horizon + 1):
                assert evaluate(
                    frag, phi, k, system.labeling, system.atoms
                ) == reference_eval(frag, phi, k, system.labeling, system.atoms)


def test_disjunction_matches_negated_conjunction():
    rng = random.Random(5)
    for system, _, frag in _fragment_pool(5, count=25):
        atoms = sorted(system.atoms)
        left = random_formula(rng, atoms, frag.horizon, depth=2)
        right = random_formula(rng, atoms, frag.horizon, depth=2)
        either = Or(left, right)
        rewritten = Not(And(Not(left), Not(right)))
        for k in range(frag.horizon + 1):
            assert evaluate(
                frag, either, k, system.labeling, system.atoms
            ) == evaluate(frag, rewritten, k, system.labeling, system.atoms)


def test_full_window_until_degenerates_to_untimed():
    rng = random.Random(31)
    for system, _, frag in _fragment_pool(31, count=25):
        atoms = sorted(system.atoms)
        left = random_formula(rng, atoms, frag.horizon, depth=1)
        right = random_formula(rng, atoms, frag.horizon, depth=1)
        bounded = Until(left, right, 0, frag.horizon)
        for k in range(frag.horizon + 1):
            assert evaluate(
                frag, bounded, k, system.labeling, system.atoms
            ) == untimed_until_holds(
                frag, left, right, k, system.labeling, system.atoms
            )
