import hashlib
import random

import pytest

from ticksynth.encode import build_encoding
from ticksynth.ilp import solve
from ticksynth.logic import Atom, Not, Truth, evaluate
from ticksynth.synth import (
    OracleBudgetError,
    SynthesisRequest,
    enumerate_fragments,
    oracle_synthesize,
    synthesize,
)
from ticksynth.tdes import (
    TICK,
    StateCapError,
    TimedDes,
    UntimedDes,
    build_tdes,
)

from helpers import random_formula, random_model, random_system


def test_avoid_until_minimal_horizon_every_mode(ring, phi_avoid_until):
    request = SynthesisRequest(ring, phi_avoid_until, 5, 15)
    for search in (synthesize, oracle_synthesize):
        result = search(request)
        assert result.found
        assert result.horizon == 7
        assert evaluate(
            result.fragment, phi_avoid_until, 0, ring.labeling, ring.atoms
        )


def test_search_runs_on_a_given_graph(ring, phi_avoid_until):
    request = SynthesisRequest(ring, phi_avoid_until, 5, 15)
    graph = build_tdes(ring)
    given, own = synthesize(request, graph), synthesize(request)
    assert (given.fragment, given.horizon) == (own.fragment, own.horizon)
    assert given.statistics.nodes == own.statistics.nodes
    other = SynthesisRequest(random_system(random.Random(3)), Truth(), 1, 2)
    with pytest.raises(ValueError):
        synthesize(other, graph)


def test_two_goal_formula_feasible_exactly_from_eleven(ring, phi_two_goals):
    found = synthesize(
        SynthesisRequest(ring, phi_two_goals, 11, 11)
    )
    assert found.found and found.horizon == 11
    assert evaluate(
        found.fragment, phi_two_goals, 0, ring.labeling, ring.atoms
    )
    missed = synthesize(
        SynthesisRequest(ring, phi_two_goals, 10, 10)
    )
    assert not missed.found
    assert missed.horizon is None and missed.fragment is None


def test_exact_search_effort_is_pinned(ring, phi_two_goals, phi_avoid_until):
    """Total nodes of the exact horizon loop on the fixture.  Model and
    propagation changes that keep the search must keep these counts."""
    for phi, horizon, nodes in ((phi_two_goals, 11, 87), (phi_avoid_until, 7, 6)):
        result = synthesize(SynthesisRequest(ring, phi, 5, 15))
        assert (result.horizon, result.statistics.nodes) == (horizon, nodes)


def test_search_effort_per_horizon_is_pinned(
    ring_tdes, phi_two_goals, phi_avoid_until
):
    """Nodes of each horizon's solve, grown as ``synthesize`` grows them:
    a change that moves nodes between horizons fails here even when the
    totals above still match."""
    for phi, nodes in (
        (phi_two_goals, [4, 8, 12, 16, 20, 24, 3]),
        (phi_avoid_until, [0, 0, 6]),
    ):
        enc, seen = None, []
        for horizon in range(5, 5 + len(nodes)):
            enc = build_encoding(ring_tdes, phi, horizon, enc)
            result = solve(enc.model)
            seen.append(result.nodes)
            assert result.feasible == (horizon == 4 + len(nodes))
        assert seen == nodes


def test_search_on_seeded_models_is_pinned():
    """Verdict, assignment and nodes of 1,500 grown encodings and 800
    random models, as digests: a change to propagation, branching or the
    cache that alters any search fails here."""

    def digest(results: list) -> str:
        return hashlib.sha256(repr(results).encode()).hexdigest()

    systems, formulas = random.Random(77), random.Random(78)
    grown = []
    for _ in range(300):
        system = random_system(systems)
        phi = random_formula(formulas, sorted(system.atoms), 5)
        graph, enc = TimedDes(system), None
        for horizon in range(1, 6):
            enc = build_encoding(graph, phi, horizon, enc)
            result = solve(enc.model)
            grown.append((result.feasible, result.assignment, result.nodes))
    assert sum(nodes for _, _, nodes in grown) == 1183
    assert sum(feasible for feasible, _, _ in grown) == 587
    assert digest(grown) == (
        "cccd62eb90d260b151402fcec66e22056368b8066dce4d15d51a4ad0972d4d15"
    )
    rng = random.Random(800)
    plain = []
    for _ in range(800):
        result = solve(random_model(rng, rng.randint(1, 14)))
        plain.append((result.feasible, result.assignment, result.nodes))
    assert sum(nodes for _, _, nodes in plain) == 1203
    assert digest(plain) == (
        "7ff470c5f79f22fed835d44d4a3a2a1d0961cf7bf0e7dfdf2bc9f64d8d59c162"
    )


def test_state_cap_bounds_only_the_states_the_horizons_reach(
    ring, phi_avoid_until
):
    # ring4 has 28 timed states; horizons 1..7 discover 22 of them
    with pytest.raises(StateCapError):
        build_tdes(ring, 24)
    capped = synthesize(SynthesisRequest(ring, phi_avoid_until, 1, 7, 24))
    default = synthesize(SynthesisRequest(ring, phi_avoid_until, 1, 7))
    assert capped.horizon == default.horizon == 7
    assert capped.fragment == default.fragment


def test_decisive_model_size_is_pinned(ring, phi_two_goals, phi_avoid_until):
    """Variables and constraints of the model that decided the search.
    Growing the model a step per horizon must leave them as a fresh
    build at the decisive horizon has them."""
    for phi, size in ((phi_two_goals, (355, 413)), (phi_avoid_until, (154, 196))):
        stats = synthesize(SynthesisRequest(ring, phi, 5, 15)).statistics
        assert (stats.variables, stats.constraints) == size


def test_until_windows_leave_out_constant_left_operand(ring_tdes, phi_two_goals):
    enc = build_encoding(ring_tdes, phi_two_goals, 11)
    truth_slots = [
        slot for slot, node in enumerate(enc.table.entries)
        if isinstance(node, Truth)
    ]
    assert truth_slots  # both F[1,5] goals are true-until windows
    truth_vars = {
        var for (slot, _), var in enc.zphi.items() if slot in truth_slots
    }
    windows = set(enc.zu.values())
    window_rows = [
        row for row in enc.model.constraints
        if any(var in windows for _, var in row.terms)
    ]
    assert window_rows
    for row in window_rows:
        assert not truth_vars & {var for _, var in row.terms}


def test_atom_goal_found_at_horizon_one(ring):
    result = synthesize(SynthesisRequest(ring, Atom("ap1"), 1, 1))
    assert result.found and result.horizon == 1
    assert result.fragment.states[0].activity == "p1"


def test_falsified_atom_not_found(ring):
    result = synthesize(SynthesisRequest(ring, Not(Atom("ap1")), 1, 1))
    assert not result.found


def test_request_validation(ring, phi_two_goals):
    with pytest.raises(ValueError):
        SynthesisRequest(ring, phi_two_goals, 0, 3)
    with pytest.raises(ValueError):
        SynthesisRequest(ring, phi_two_goals, 4, 3)
    for low, high in ((1.5, 5), (True, 3)):
        with pytest.raises(ValueError):
            SynthesisRequest(ring, phi_two_goals, low, high)


def test_stats_are_populated(ring, phi_avoid_until):
    result = synthesize(
        SynthesisRequest(ring, phi_avoid_until, 7, 7)
    )
    stats = result.statistics
    assert stats.variables > 0 and stats.constraints > 0
    assert stats.wall_time >= 0.0


# --- enumeration oracle -----------------------------------------------------------

def test_enumeration_is_lexicographic(ring_tdes):
    runs = list(enumerate_fragments(ring_tdes, 2))
    events = [r.events for r in runs]
    assert events == sorted(events)
    assert len(set(events)) == len(events)


def test_oracle_finds_avoid_until_at_seven(ring, phi_avoid_until):
    result = oracle_synthesize(
        SynthesisRequest(ring, phi_avoid_until, 5, 8)
    )
    assert result.found and result.horizon == 7
    assert evaluate(
        result.fragment, phi_avoid_until, 0, ring.labeling, ring.atoms
    )


def test_oracle_misses_below_seven(ring, phi_avoid_until):
    result = oracle_synthesize(
        SynthesisRequest(ring, phi_avoid_until, 5, 6)
    )
    assert not result.found


def test_oracle_returns_lex_first_satisfying_run(ring, ring_tdes, phi_avoid_until):
    result = oracle_synthesize(
        SynthesisRequest(ring, phi_avoid_until, 7, 7)
    )
    satisfying = [
        frag.events
        for frag in enumerate_fragments(ring_tdes, 7)
        if evaluate(frag, phi_avoid_until, 0, ring.labeling, ring.atoms)
    ]
    assert result.fragment.events == min(satisfying)


def test_oracle_enumerates_runs_deeper_than_the_recursion_limit():
    # one state, no events: the only run of each horizon ticks throughout,
    # so the budget (branching 1) never stops the enumeration
    system = UntimedDes({"s"}, set(), {}, "s", {"p"}, {"s": {"p"}}, {})
    request = SynthesisRequest(system, Atom("p"), 3000, 3000)
    for search in (oracle_synthesize, synthesize):
        result = search(request)
        assert result.horizon == 3000
        assert result.fragment.events == (TICK,) * 3000


def test_oracle_budget_guard(ring, phi_two_goals):
    with pytest.raises(OracleBudgetError):
        oracle_synthesize(
            SynthesisRequest(ring, phi_two_goals, 11, 11), budget=100
        )


def test_exact_synthesis_agrees_with_oracle():
    rng = random.Random(97)
    trials = 0
    while trials < 60:
        system = random_system(rng, max_states=5)
        graph = build_tdes(system, state_cap=3000)
        max_branch = max(map(len, graph.outgoing))
        horizon = rng.randint(1, 5)
        if max_branch**horizon > 200_000:
            continue
        phi = random_formula(rng, sorted(system.atoms), horizon)
        request = SynthesisRequest(system, phi, horizon, horizon)
        solved = synthesize(request)
        reference = oracle_synthesize(request)
        assert solved.found == reference.found
        if solved.found:
            assert evaluate(
                solved.fragment, phi, 0, system.labeling, system.atoms
            )
        trials += 1
