"""The progression reference against enumeration, then against every pin."""

import functools
import random

import pytest

from ticksynth.encode import Encoding, build_encoding, decode
from ticksynth.ilp import solve
from ticksynth.logic import Until, evaluate, parse, positive, subformulas
from ticksynth.synth import SynthesisRequest, oracle_synthesize, synthesize
from ticksynth.tdes import TimedDes, fixture_path, load_system, system_from_json

from helpers import (
    deep_requests,
    oracle_requests,
    perfbench_workloads,
    random_formula,
    random_system,
)
from progression import (
    Progression,
    check_no_run_certificate,
    horizon_range,
    obligation,
    progress,
    progression_synthesize,
)

WORKLOADS = perfbench_workloads()


def test_progression_agrees_with_oracle():
    """Verdict, horizon and run equal enumeration's on the generator of
    ``test_exact_synthesis_agrees_with_oracle``, run for 300 requests."""
    found = 0
    for request in oracle_requests(trials=300):
        reference = oracle_synthesize(request)
        horizon, run = progression_synthesize(request)
        assert (horizon, run) == (reference.horizon, reference.fragment)
        found += reference.found
    assert found == 127


def test_tick_shifts_the_until_window():
    """A tick spends one unit of both bounds; another event spends none,
    and a spent upper bound leaves only the right operand now."""
    until = obligation(parse("!a U[2,3] b"))
    left, right = until[1], until[2]
    assert progress(until, frozenset(), 1) == ("until", left, right, 1, 2)
    assert progress(until, frozenset(), 0) == until
    spent = ("until", left, right, 0, 0)
    assert progress(spent, frozenset({"b"}), 1) is True
    assert progress(spent, frozenset(), 1) is False


def _system(spec):
    if isinstance(spec, str):
        return load_system(fixture_path(spec))
    return system_from_json(spec)


def _bench(name, seed, *pinned):
    """The row of benchmark case ``name`` at ``seed``, whose range and
    answer must still be the pinned ones."""
    (case,) = [
        case for make in WORKLOADS["WORKLOADS"].values()
        for case in make(seed) if case.name == name
    ]
    if (case.horizon_min, case.horizon_max, case.horizon) != pinned[:3]:
        raise ValueError(f"benchmark case {name} at seed {seed} has changed")
    return pytest.param(case.system, case.formula, *pinned, id=f"{name}-seed{seed}")


RING6, RING10 = WORKLOADS["ring_doc"](6), WORKLOADS["ring_doc"](10)
TWO_GOAL_RUN = "move14 tick reach14 move41 tick tick reach41 move12 tick tick reach12"
RING6_RUN = (
    "move_1_2 tick reach_1_2 move_2_3 tick reach_2_3 move_3_4 tick reach_3_4"
    " move_4_5 tick tick reach_4_5"
)
NESTED_RING4 = "F[1,8] (ap3 & F[1,4] ap1) & G[0,30] !ap4"
ONE_STATE = {"states": ["s"], "events": [], "transitions": [], "initial": "s",
             "atoms": ["p"], "labels": {"s": ["p"]}}

# Every pinned search: system, formula, range, least horizon (None: no run
# in range), the deciding model's variables and constraints, the nodes of
# the whole horizon loop, and the run's events where they are quoted.
PINS = [
    _bench("ring4-two-goal", 1, 5, 15, 11, 258, 255, 57, TWO_GOAL_RUN),
    _bench("ring4-two-goal", 2, 5, 15, 11, 258, 255, 57, TWO_GOAL_RUN),
    _bench("ring4-avoid-until", 1, 5, 15, 7, 113, 120, 8, None),
    _bench("ring4-avoid-until", 2, 5, 15, 7, 113, 120, 8, None),
    _bench("ring6", 1, 1, 16, 13, 366, 316, 33, None),
    _bench("ring6", 2, 1, 16, 13, 366, 316, 29, None),
    _bench("ring10", 1, 1, 23, None, 1_091, 858, 100, None),
    _bench("ring10", 2, 1, 23, None, 1_091, 858, 100, None),
    _bench("plant4", 1, 1, 8, 5, 389, 135, 5, None),
    _bench("plant4", 2, 1, 8, 5, 389, 135, 5, None),
    pytest.param(
        "ring4.json", NESTED_RING4, 1, 11, None, 430, 727, 36, None,
        id="nested-ring4",
    ),
    pytest.param(
        WORKLOADS["plant_doc"](4), "F[1,6] (busy0 & F[1,3] (busy1 & !busy0))",
        1, 9, 6, 1_038, 490, 59, "start0 tick start1 tick tick finish0",
        id="nested-plant4",
    ),
    pytest.param(
        RING6, "G[0,30] (ap2 -> F[0,3] ap3) & F[1,14] ap5 & F[1,9] ap3",
        1, 18, 13, 533, 793, 41, RING6_RUN, id="nested-ring6",
    ),
    pytest.param(
        RING10, "F[1,10] ap4 & F[1,20] ap7 & F[1,25] ap9", 1, 30, 29,
        1_581, 1_200, 939, RING6_RUN + " move_5_6 tick tick tick reach_5_6"
        " move_6_7 tick reach_6_7 move_7_8 tick tick reach_7_8 move_8_9 tick"
        " tick reach_8_9", id="deep-rung",
    ),
    pytest.param(
        RING10, "F[1,14] (ap4 & F[1,8] ap2)", 1, 20, 17, 939, 1_464, 2_593,
        "move_1_2 tick reach_1_2 move_2_3 tick reach_2_3 move_3_4 tick"
        " reach_3_4 move_4_3 tick tick reach_4_3 move_3_2 tick tick reach_3_2",
        id="nested-ring10",
    ),
    # one state and no events: the only run ticks throughout, so the
    # search is as deep as the horizon
    pytest.param(
        ONE_STATE, "p", 1_000, 1_000, 1_000, 2_002, 2_002, 0,
        " ".join(["tick"] * 1_000), id="one-state",
    ),
]


ROWS = {row.id: row.values for row in PINS}


@functools.cache
def _request(name):
    spec, text, low, high = ROWS[name][:4]
    return SynthesisRequest(_system(spec), parse(text), low, high)


@functools.cache
def _reference(name):
    """The reference's answer to row ``name``, searched once a session."""
    return progression_synthesize(_request(name))


def _confirm(name):
    """The reference gives row ``name`` its pinned horizon and run."""
    request, (horizon, run) = _request(name), _reference(name)
    system, pinned, events = request.system, ROWS[name][4], ROWS[name][8]
    assert horizon == pinned
    if run is not None:
        assert run.horizon == pinned
        assert evaluate(run, request.formula, 0, system.labeling, system.atoms)
    if events is not None:
        assert " ".join(run.events) == events


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(WORKLOADS["WORKLOADS"]))
def test_progression_confirms_workload_pins(workload, seed):
    """Every benchmark case's pinned answer, "not found" included: ring10
    has no run of any horizon in 1..23, which enumeration cannot check."""
    for case in WORKLOADS["WORKLOADS"][workload](seed):
        _confirm(f"{case.name}-seed{seed}")


@pytest.mark.parametrize(
    "name", ["nested-ring4", "nested-plant4", "nested-ring6", "deep-rung", "nested-ring10"]
)
def test_progression_confirms_nested_pins(name):
    """The horizons and runs of the nested and deep cases; nested ring4
    has no run of any horizon in 1..11."""
    _confirm(name)


@pytest.mark.parametrize("name", list(ROWS))
def test_synthesis_returns_the_reference_run_on_every_pin(name):
    """Every pinned search: ``synthesize`` returns the reference's run,
    the first in ``outgoing`` order, or the same "not found" (ring10 has
    no run in 1..23, which enumeration cannot check); then every pinned
    number."""
    request = _request(name)
    system, phi = request.system, request.formula
    horizon, variables, constraints, nodes, events = ROWS[name][4:]
    result = synthesize(request)
    assert (result.horizon, result.fragment) == _reference(name)
    stats = result.statistics
    assert (result.horizon, stats.variables, stats.constraints, stats.nodes) == (
        horizon, variables, constraints, nodes,
    )
    if result.found:
        assert evaluate(result.fragment, phi, 0, system.labeling, system.atoms)
    if events is not None:
        assert " ".join(result.fragment.events) == events


def _ascending(request):
    """Horizon, run and model size of a plain ascending horizon loop, one
    solve per horizon, as ``synthesize`` ran before its stride."""
    enc = Encoding(TimedDes(request.system, request.state_cap), request.formula)
    for horizon in range(request.horizon_min, request.horizon_max + 1):
        result = solve(build_encoding(enc, horizon).model)
        if result.feasible:
            run = decode(enc, result.assignment)
            return horizon, run, enc.model.num_variables, enc.model.num_constraints
    return None, None, enc.model.num_variables, enc.model.num_constraints


@pytest.mark.parametrize(
    "name",
    ["ring4-two-goal-seed1", "ring6-seed1", "ring10-seed1", "plant4-seed1", "nested-plant4"],
)
def test_every_start_gives_the_ascending_answer(name):
    """From every ``hmin`` up to 20, so the stride lands on both
    parities: on the least horizon, one past it (the step back finds
    the run), and past a range with no run.  Horizon, run, variables and
    constraints equal the ascending loop's."""
    request = _request(name)
    high = request.horizon_max
    for low in range(1, min(high, 20) + 1):
        start = SynthesisRequest(request.system, request.formula, low, high)
        result = synthesize(start)
        stats = result.statistics
        assert (
            result.horizon, result.fragment, stats.variables, stats.constraints
        ) == _ascending(start), low


def test_positive_formulas_have_upward_closed_horizons():
    """The lemma the stride of ``synthesize`` rests on: on 1,000 seeded
    requests, the layer walk finds every horizon from the first feasible
    one on feasible, whenever the formula is positive.  62 of those have
    an until and a first feasible horizon above 1; and 6 of the other
    formulas lose a feasible horizon as the run grows, so the closure
    does need positivity."""
    rng = random.Random(36)
    late = broken = 0
    for _ in range(1_000):
        system = random_system(rng, max_states=4)
        phi = random_formula(rng, sorted(system.atoms), 6)
        walk = horizon_range(TimedDes(system), phi, budget=2_000)
        first = min(walk.feasible, default=2 * walk.end + 2)
        closed = all(
            walk.holds(h) == (h >= first) for h in range(1, 2 * walk.end + 2)
        )
        table = subformulas(phi)
        if positive(table):
            assert closed, phi
            timed = any(isinstance(node, Until) for node in table.entries)
            late += timed and 1 < first <= walk.end
        else:
            broken += not closed
    assert (late, broken) == (62, 6)


def test_synthesis_agrees_with_progression_beyond_enumeration():
    """Verdict, horizon and run equal the reference's on 100 requests too
    large to enumerate, and every returned run certifies.  The layer walk
    gives every horizon's answer, past its repeat too, as the reference
    does."""
    found = 0
    for request in deep_requests(seed=15, trials=100):
        result = synthesize(request)
        horizon, run = progression_synthesize(request)
        assert (result.horizon, result.fragment) == (horizon, run)
        if result.found:
            system = request.system
            assert evaluate(
                result.fragment, request.formula, 0, system.labeling, system.atoms
            )
        found += result.found
        graph = TimedDes(request.system)
        walk = horizon_range(graph, request.formula, budget=10_000)
        reference = Progression(graph, request.formula)
        for h in range(1, request.horizon_max + 1):
            assert walk.holds(h) == (reference.run(h) is not None), h
    assert found == 41


def test_walk_refutes_nested_ring4_at_every_horizon():
    """Layer 21 repeats layer 20 and no layer holds at the end, so no
    horizon has a run; the union of the layers certifies it, and a
    union missing the pairs of any one timed state does not."""
    graph, phi = TimedDes(_system("ring4.json")), parse(NESTED_RING4)
    walk = horizon_range(graph, phi, budget=1_000)
    assert (walk.start, walk.end, walk.pairs) == (20, 21, 353)
    assert walk.feasible == frozenset() and walk.first(1, 10_000) is None
    assert check_no_run_certificate(graph, phi, walk.union)
    for state in {i for i, _ in walk.union}:
        part = frozenset(pair for pair in walk.union if pair[0] != state)
        assert not check_no_run_certificate(graph, phi, part), state
    assert horizon_range(graph, phi, budget=100) is None


def test_walk_puts_ring10_refute_and_the_deep_rung_at_29():
    """ring10-refute's "none in 1..23" and the deep rung's 29 are one
    fact: the first feasible horizon of ring10's three goals is 29."""
    (case,) = WORKLOADS["WORKLOADS"]["ring10-refute"](1)
    graph = TimedDes(_system(case.system))
    walk = horizon_range(graph, parse(case.formula), budget=5_000)
    assert walk.pairs == 1_819
    assert walk.first(1, walk.end) == 29
    assert walk.first(case.horizon_min, case.horizon_max) == case.horizon is None


@pytest.mark.parametrize(
    ("spec", "text", "first", "pairs"),
    [
        ("ring4.json", "!ap2 U[3,5] ap3", 7, 102),
        ("ring4.json", "F[1,5] ap2 & F[1,5] ap4", 11, 165),
        (
            WORKLOADS["plant_doc"](4),
            "F[0,3] (busy0 & busy1 & busy2 & busy3)", 5, 2_028,
        ),
        (
            WORKLOADS["ring_doc"](6),
            "G[0,30] (ap2 -> F[0,3] ap3) & F[1,14] ap5 & F[1,9] ap3",
            13, 2_698,
        ),
    ],
    ids=["avoid-until", "two-goal", "plant4-wide", "nested-ring6"],
)
def test_walk_gives_the_first_feasible_horizon(spec, text, first, pairs):
    """Every horizon from the first feasible one on has a run here."""
    walk = horizon_range(TimedDes(_system(spec)), parse(text), budget=5_000)
    assert walk.pairs == pairs
    assert min(walk.feasible) == first
    assert walk.feasible == frozenset(range(first, walk.end + 1))


def test_walk_past_its_budget_is_undecided():
    """Nested plant4 takes 13,316 pairs to decide; 5,000 decide nothing."""
    plant = TimedDes(_system(WORKLOADS["plant_doc"](4)))
    phi = parse("F[1,6] (busy0 & F[1,3] (busy1 & !busy0))")
    assert horizon_range(plant, phi, budget=5_000) is None
