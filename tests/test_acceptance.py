"""End-to-end acceptance criteria.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary
line per criterion.  Criterion 3 is implemented faithfully as stated and
is expected to fail: the ring fixture admits a certified run for the
avoid-until goal at horizon 7, so demanding horizon 10 contradicts the
transition rules and the satisfaction semantics themselves (see the
companion test pinning the true behavior, and the decisions ledger kept
outside the package).
"""

import random
import time

import pytest

from ticksynth.encode import add_counter_threshold, build_encoding
from ticksynth.ilp import IlpModel, check_assignment, solve
from ticksynth.logic import Not, Or, evaluate, parse
from ticksynth.synth import (
    SynthesisRequest,
    enumerate_fragments,
    oracle_synthesize,
    synthesize,
)
from ticksynth.tdes import Fragment, StateCapError, build_tdes

from helpers import (
    WORKED_ATOMS,
    WORKED_LABELS,
    brute_force_feasible,
    induced_valuation,
    random_formula,
    random_fragment,
    random_model,
    random_system,
    worked_example_fragment,
)


def report(number: int, status: str, detail: str) -> None:
    print(f"[criterion {number}] {status} - {detail}")


def test_criterion_1_worked_semantics_example():
    frag = worked_example_fragment()
    phi = parse("a U[1,3] b")
    assert frag.count(0, 3) == 2
    assert frag.count(1, 3) == 1
    assert evaluate(frag, phi, 0, WORKED_LABELS, WORKED_ATOMS) is True
    assert evaluate(frag, phi, 1, WORKED_LABELS, WORKED_ATOMS) is False
    report(1, "PASS", "counts 2/1 and until true@0, false@1, exact")


def test_criterion_2_two_goal_reproduction(ring, phi_two_goals):
    start = time.perf_counter()
    result = synthesize(
        SynthesisRequest(ring, phi_two_goals, 5, 15)
    )
    elapsed = time.perf_counter() - start
    assert result.found
    assert result.horizon == 11
    assert evaluate(
        result.fragment, phi_two_goals, 0, ring.labeling, ring.atoms
    )
    assert elapsed < 60.0
    report(2, "PASS", f"horizon 11 with certified run in {elapsed:.2f}s")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated horizon 10 is unattainable: the avoid-until goal is "
        "satisfied at horizon 7 (wait one tick, travel p1->p4->p3: three "
        "ticks inside the 3..5 window); see the decisions ledger"
    ),
)
def test_criterion_3_avoid_until_reproduction(ring, phi_avoid_until):
    result = synthesize(
        SynthesisRequest(ring, phi_avoid_until, 5, 15)
    )
    assert result.found
    assert evaluate(
        result.fragment, phi_avoid_until, 0, ring.labeling, ring.atoms
    )
    report(
        3,
        "FAIL",
        f"synthesis finds certified horizon {result.horizon}, not 10 "
        "(expected failure, see ledger)",
    )
    assert result.horizon == 10


def test_criterion_3_true_minimal_horizon(ring, phi_avoid_until):
    solved = synthesize(
        SynthesisRequest(ring, phi_avoid_until, 5, 15)
    )
    reference = oracle_synthesize(
        SynthesisRequest(ring, phi_avoid_until, 5, 15)
    )
    assert solved.found and reference.found
    assert solved.horizon == reference.horizon == 7
    below = oracle_synthesize(SynthesisRequest(ring, phi_avoid_until, 5, 6))
    assert not below.found
    report(
        3,
        "NOTE",
        "true minimal horizon is 7 by both solver and exhaustive "
        "enumeration (certified); 5..6 are infeasible",
    )


def test_criterion_4_route_fixtures(ring, route_a, route_b,
                                    phi_two_goals, phi_avoid_until):
    from ticksynth.tdes import fragment_errors

    assert fragment_errors(ring, route_a) == []
    assert fragment_errors(ring, route_b) == []
    assert evaluate(route_a, phi_two_goals, 0, ring.labeling, ring.atoms)
    assert evaluate(route_b, phi_avoid_until, 0, ring.labeling, ring.atoms)
    report(4, "PASS", "both bundled routes replay and satisfy their goals")


def test_criterion_5_route_exclusion(ring, ring_tdes):
    """Every run of horizon 11 that visits p2 before p4 has spent at
    least 2+3+1 = 6 ticks by the time it could reach p4, so the 1..5
    window on the p4 goal fails on all of them."""
    goal = parse("F[1,5] ap4")
    outgoing = ring_tdes.outgoing
    activity = [s.activity for s in ring_tdes.states]

    checked = 0
    path = [0]
    events = []

    def walk(seen_p2: bool, seen_p4: bool, depth: int) -> None:
        nonlocal checked
        if seen_p4 and not seen_p2:
            return  # wrong order; prune
        if depth == 11:
            if seen_p2:
                frag = Fragment(
                    tuple(ring_tdes.states[i] for i in path), tuple(events)
                )
                assert not evaluate(
                    frag, goal, 0, ring.labeling, ring.atoms
                ), f"run {frag.events} unexpectedly meets the window"
                checked += 1
            return
        for ev, j in outgoing[path[-1]]:
            path.append(j)
            events.append(ev)
            walk(
                seen_p2 or activity[j] == "p2",
                seen_p4 or activity[j] == "p4",
                depth + 1,
            )
            path.pop()
            events.pop()

    walk(False, False, 0)
    assert checked > 0
    report(
        5,
        "PASS",
        f"all {checked} horizon-11 runs visiting p2 before p4 miss the "
        "p4 window",
    )


def test_criterion_6_encoder_oracle_equivalence():
    rng = random.Random(20260810)
    instances = 0
    while instances < 200:
        system = random_system(rng, max_states=5)
        try:
            graph = build_tdes(system, state_cap=3000)
        except StateCapError:
            continue
        horizon = rng.randint(1, 5)
        branching = max(map(len, graph.outgoing))
        if branching**horizon > 100_000:
            continue
        phi = random_formula(rng, sorted(system.atoms), horizon)
        enc = build_encoding(graph, phi, horizon)
        feasible = solve(enc.model).feasible
        exists = any(
            evaluate(frag, phi, 0, system.labeling, system.atoms)
            for frag in enumerate_fragments(graph, horizon)
        )
        assert feasible == exists, (
            f"disagreement on instance {instances}: "
            f"solver={feasible} enumeration={exists}"
        )
        instances += 1
    report(6, "PASS", f"{instances} instances, zero disagreements")


def test_criterion_7_replay_completeness():
    rng = random.Random(4242)
    fragments = 0
    while fragments < 200:
        system = random_system(rng, max_states=4)
        try:
            graph = build_tdes(system, state_cap=3000)
        except StateCapError:
            continue
        for _ in range(5):
            horizon = rng.randint(1, 5)
            frag = random_fragment(rng, graph, horizon)
            if frag is None:
                continue
            phi = random_formula(rng, sorted(system.atoms), horizon)
            # `phi | !phi` holds on every run: its root pin binds nothing,
            # and every row of phi is checked
            enc = build_encoding(graph, Or(phi, Not(phi)), horizon)
            valuation = induced_valuation(enc, frag)
            violations = check_assignment(enc.model, valuation)
            assert violations == [], violations
            for (slot, k), var in enc.zphi.items():
                assert valuation[var] == int(
                    evaluate(
                        frag,
                        enc.table.entries[slot],
                        k,
                        system.labeling,
                        system.atoms,
                    )
                )
            fragments += 1
    report(
        7,
        "PASS",
        f"{fragments} induced valuations satisfy every row with "
        "satisfaction variables matching the evaluator",
    )


def test_criterion_8_solver_against_enumeration():
    rng = random.Random(909090)
    total = 0
    for _ in range(440):
        model = random_model(rng, rng.randint(1, 12))
        outcome = solve(model)
        assert outcome.feasible == brute_force_feasible(model)
        if outcome.feasible:
            assert check_assignment(model, outcome.assignment) == []
        total += 1
    for _ in range(60):
        model = random_model(rng, rng.randint(13, 20))
        outcome = solve(model)
        assert outcome.feasible == brute_force_feasible(model)
        if outcome.feasible:
            assert check_assignment(model, outcome.assignment) == []
        total += 1
    report(8, "PASS", f"{total} random models match exhaustive enumeration")


def test_criterion_9_threshold_truth_table():
    cases = 0
    for horizon in range(1, 13):
        big_m = horizon + 1
        for m in range(horizon + 1):
            for n in range(m, horizon + 1):
                for count in range(horizon + 1):
                    model = IlpModel()
                    bits = [
                        model.add_var(f"t{i}", 0, 1) for i in range(horizon)
                    ]
                    for i, bit in enumerate(bits):
                        model.add([(1, bit)], "=", 1 if i < count else 0)
                    add_counter_threshold(model, bits, m, n, big_m)
                    fixed = tuple(1 if i < count else 0 for i in range(horizon))
                    expected = (int(count >= m), int(count <= n))
                    for ge in (0, 1):
                        for le in (0, 1):
                            candidate = fixed + (ge, le)
                            ok = check_assignment(model, candidate) == []
                            assert ok == ((ge, le) == expected), (
                                horizon, m, n, count, ge, le
                            )
                    cases += 1
    report(
        9,
        "PASS",
        f"{cases} (count, m, n, horizon) combinations force the unique "
        "indicator pair",
    )
