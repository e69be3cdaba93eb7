import hashlib
import random
import time

import pytest

from ticksynth.encode import Encoding, build_encoding
from ticksynth.ilp import solve
from ticksynth.logic import TRUE, And, Atom, Not, Or, Truth, Until, evaluate, parse
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
    system_from_json,
)

from helpers import (
    oracle_requests,
    perfbench_workloads,
    random_formula,
    random_model,
    random_system,
)


def test_avoid_until_minimal_horizon_every_mode(ring, phi_avoid_until):
    request = SynthesisRequest(ring, phi_avoid_until, 5, 15)
    for search in (synthesize, oracle_synthesize):
        result = search(request)
        assert result.found
        assert result.horizon == 7
        assert evaluate(
            result.fragment, phi_avoid_until, 0, ring.labeling, ring.atoms
        )


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
    for phi, horizon, nodes in ((phi_two_goals, 11, 57), (phi_avoid_until, 7, 8)):
        result = synthesize(SynthesisRequest(ring, phi, 5, 15))
        assert (result.horizon, result.statistics.nodes) == (horizon, nodes)


def test_search_effort_per_horizon_is_pinned(
    ring_tdes, phi_two_goals, phi_avoid_until
):
    """Nodes of each horizon's solve, grown as ``synthesize`` grows them:
    a change that moves nodes between horizons fails here even when the
    totals above still match."""
    for phi, nodes in (
        (phi_two_goals, [2, 6, 10, 14, 18, 22, 5]),
        (phi_avoid_until, [0, 0, 8]),
    ):
        enc, seen = Encoding(ring_tdes, phi), []
        for horizon in range(5, 5 + len(nodes)):
            build_encoding(enc, horizon)
            result = solve(enc.model)
            seen.append(result.nodes)
            assert result.feasible == (horizon == 4 + len(nodes))
        assert seen == nodes


def test_search_on_seeded_models_is_pinned():
    """Verdict, assignment and nodes of 1,500 grown encodings and 800
    random models, as digests: a change to propagation, branching or the
    cache that alters any search fails here.  The grown solves' verdicts
    and assignments also have a digest of their own, which a change to
    search effort alone must keep."""

    def digest(results: list) -> str:
        return hashlib.sha256(repr(results).encode()).hexdigest()

    systems, formulas = random.Random(77), random.Random(78)
    grown = []
    for _ in range(300):
        system = random_system(systems)
        phi = random_formula(formulas, sorted(system.atoms), 5)
        enc = Encoding(TimedDes(system), phi)
        for horizon in range(1, 6):
            build_encoding(enc, horizon)
            result = solve(enc.model)
            grown.append((result.feasible, result.assignment, result.nodes))
    answers = [(feasible, assignment) for feasible, assignment, _ in grown]
    assert digest(answers) == (
        "2bee24fd7225ed8f2844219efd4e4b872c71f193615de1e51de9b509b46379e5"
    )
    assert sum(nodes for _, _, nodes in grown) == 756
    assert sum(feasible for feasible, _, _ in grown) == 587
    assert digest(grown) == (
        "197ad914357a878baf4e60e9377668a5978fa3813a63cea9c7b17142ffa5c219"
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


def test_a_cap_the_least_horizon_stays_within_is_not_hit_by_the_stride():
    """ring8's two goals have no run at 15 and their first at 16, whose
    encoding discovers 51 timed states.  Growing to 17, where the search
    first lands, would discover more: at a cap of 51 it solves 16
    instead and returns the run that an ascending loop returns.  At 50,
    horizon 16 is past the cap and the request fails."""
    system = system_from_json(perfbench_workloads()["ring_doc"](8))
    phi = parse("F[1,6] ap2 & F[1,9] ap7")
    graph = TimedDes(system)
    enc = build_encoding(Encoding(graph, phi), 16)
    assert graph.n == 51
    build_encoding(enc, 17)
    assert graph.n > 51
    default = synthesize(SynthesisRequest(system, phi, 11, 25))
    capped = synthesize(SynthesisRequest(system, phi, 11, 25, 51))
    assert (capped.horizon, capped.fragment) == (default.horizon, default.fragment)
    assert capped.horizon == 16
    assert capped.statistics[:2] == default.statistics[:2]
    with pytest.raises(StateCapError):
        synthesize(SynthesisRequest(system, phi, 11, 25, 50))


def test_decisive_model_size_is_pinned(ring, phi_two_goals, phi_avoid_until):
    """Variables and constraints of the model that decided the search.
    Growing the model a step per horizon must leave them as a fresh
    build at the decisive horizon has them."""
    for phi, size in ((phi_two_goals, (258, 255)), (phi_avoid_until, (113, 120))):
        stats = synthesize(SynthesisRequest(ring, phi, 5, 15)).statistics
        assert (stats.variables, stats.constraints) == size


def test_until_windows_leave_out_constant_left_operand(ring_tdes, phi_two_goals):
    enc = build_encoding(Encoding(ring_tdes, phi_two_goals), 11)
    table = enc.table
    truth_slots = [
        slot for slot, node in enumerate(table.entries)
        if isinstance(node, Truth)
    ]
    assert truth_slots  # both F[1,5] goals are true-until windows
    assert not [slot for slot, _ in enc.zphi if slot in truth_slots]
    untils = [
        slot for slot, node in enumerate(table.entries)
        if isinstance(node, Until)
    ]
    # a window's rows read windows, thresholds, goals and untils only
    windows = set(enc.zu.values())
    readable = windows | set(enc.zc.values()) | {
        var for (slot, _), var in enc.zphi.items()
        if slot in untils or slot in {table.children[u][1] for u in untils}
    }
    window_rows = [
        row for row in enc.model.constraints
        if any(var in windows for _, var in row.terms)
    ]
    assert window_rows
    for row in window_rows:
        assert {var for _, var in row.terms} <= readable


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
    request = SynthesisRequest(ring, phi_avoid_until, 7, 7)
    stats = synthesize(request).statistics
    assert stats.variables > 0 and stats.constraints > 0
    # no clock reading: two searches of one request give equal results
    assert synthesize(request) == synthesize(request)


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
    # branching 3: 3^15 = 14,348,907 runs exceed the budget of 10^7
    with pytest.raises(OracleBudgetError, match=r"\(3\^15 > 10000000\)"):
        oracle_synthesize(SynthesisRequest(ring, phi_two_goals, 15, 15))


def test_oracle_budget_guard_refuses_a_huge_horizon_at_once(ring):
    # the guard never raises the branching to the full horizon
    start = time.perf_counter()
    with pytest.raises(OracleBudgetError, match=r"\(3\^1000000000 > "):
        oracle_synthesize(SynthesisRequest(ring, Atom("ap1"), 10**9, 10**9))
    assert time.perf_counter() - start < 2.0


def test_exact_synthesis_agrees_with_oracle():
    """The verdict and the run are enumeration's: the lexicographically
    first run, in ``outgoing`` order, of the smallest feasible horizon."""
    found = 0
    for request in oracle_requests():
        solved = synthesize(request)
        reference = oracle_synthesize(request)
        assert solved.found == reference.found
        assert solved.fragment == reference.fragment
        found += solved.found
        if solved.found:
            system = request.system
            assert evaluate(
                solved.fragment, request.formula, 0, system.labeling, system.atoms
            )
    assert found == 28


def random_state_formula(rng, atoms, depth):
    """Random until-free formula: atoms, `true`, `false`, tautologies
    and contradictions under `!`, `&` and `|`."""
    if depth == 0 or rng.random() < 0.25:
        atom = Atom(rng.choice(atoms))
        return rng.choice(
            (atom, atom, TRUE, Not(TRUE), Or(atom, Not(atom)), And(atom, Not(atom)))
        )
    pick = rng.random()
    if pick < 0.3:
        return Not(random_state_formula(rng, atoms, depth - 1))
    kind = And if pick < 0.65 else Or
    return kind(
        random_state_formula(rng, atoms, depth - 1),
        random_state_formula(rng, atoms, depth - 1),
    )


def random_formula_over_state_formulas(rng, atoms, horizon, depth=2):
    """`!`, `&`, `|` and untils whose leaves are until-free formulas."""
    if depth == 0 or rng.random() < 0.2:
        return random_state_formula(rng, atoms, 3)
    pick = rng.random()
    if pick < 0.15:
        return Not(random_formula_over_state_formulas(rng, atoms, horizon, depth - 1))
    operands = [
        random_formula_over_state_formulas(rng, atoms, horizon, depth - 1)
        for _ in range(2)
    ]
    if pick < 0.4:
        return rng.choice((And, Or))(*operands)
    low = rng.randint(0, horizon)
    return Until(*operands, low, rng.randint(low, horizon))


def test_state_formula_rows_agree_with_oracle():
    """Each until-free subformula is one row over a layer's states, in
    one of two forms; a form that reads the wrong states or the wrong
    constant changes some verdict here.  Some atoms label every activity
    or none, so slots also hold on all or none of a layer."""
    rng = random.Random(41)
    trials = 0
    while trials < 60:
        system = random_system(rng, max_states=5)
        labeling = {s: set(system.label(s)) for s in system.states}
        for atom in sorted(system.atoms):
            pick = rng.random()
            if pick < 0.25:
                for labels in labeling.values():
                    labels.add(atom)
            elif pick < 0.5:
                for labels in labeling.values():
                    labels.discard(atom)
        system = UntimedDes(
            system.states, system.events, system.transitions, system.initial,
            system.atoms, labeling, system.timing,
        )
        graph = build_tdes(system, state_cap=3000)
        horizon = rng.randint(1, 5)
        if max(map(len, graph.outgoing)) ** horizon > 200_000:
            continue
        phi = random_formula_over_state_formulas(
            rng, sorted(system.atoms), horizon
        )
        request = SynthesisRequest(system, phi, 1, horizon)
        solved, reference = synthesize(request), oracle_synthesize(request)
        assert (solved.found, solved.horizon) == (
            reference.found, reference.horizon
        ), trials
        if solved.found:
            assert evaluate(
                solved.fragment, phi, 0, system.labeling, system.atoms
            )
        trials += 1


def plant_doc(k):
    """The benchmark's k-machine plant, read from ``perfbench/``."""
    return perfbench_workloads()["plant_doc"](k)


def test_plant4_short_horizons_are_refuted_at_the_root():
    """No state of w[3] or w[4] carries all four busy atoms.  The
    conjunction is one row over each layer, so propagation alone
    refutes those horizons."""
    system = system_from_json(plant_doc(4))
    phi = parse("F[0,3] (busy0 & busy1 & busy2 & busy3)")
    enc = Encoding(TimedDes(system), phi)
    for horizon in range(1, 5):
        build_encoding(enc, horizon)
        if horizon >= 3:
            result = solve(enc.model)
            assert (result.feasible, result.nodes) == (False, 0), horizon
