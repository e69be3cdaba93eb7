"""The progression reference against enumeration, then against every pin."""

import pytest

from ticksynth.logic import evaluate, parse
from ticksynth.synth import SynthesisRequest, oracle_synthesize, synthesize
from ticksynth.tdes import TimedDes, fixture_path, load_system, system_from_json

from helpers import deep_requests, oracle_requests, perfbench_workloads
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


def _confirm(system, text, low, high, pinned):
    phi = parse(text)
    horizon, run = progression_synthesize(SynthesisRequest(system, phi, low, high))
    assert horizon == pinned
    if run is not None:
        assert run.horizon == pinned
        assert evaluate(run, phi, 0, system.labeling, system.atoms)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(WORKLOADS["WORKLOADS"]))
def test_progression_confirms_workload_pins(workload, seed):
    """Every benchmark case's pinned answer, "not found" included: ring10
    has no run of any horizon in 1..23, which enumeration cannot check."""
    for case in WORKLOADS["WORKLOADS"][workload](seed):
        _confirm(
            _system(case.system), case.formula,
            case.horizon_min, case.horizon_max, case.horizon,
        )


@pytest.mark.parametrize(
    ("spec", "text", "high", "pinned"),
    [
        ("ring4.json", "F[1,8] (ap3 & F[1,4] ap1) & G[0,30] !ap4", 11, None),
        (
            WORKLOADS["plant_doc"](4),
            "F[1,6] (busy0 & F[1,3] (busy1 & !busy0))", 9, 6,
        ),
        (
            WORKLOADS["ring_doc"](6),
            "G[0,30] (ap2 -> F[0,3] ap3) & F[1,14] ap5 & F[1,9] ap3", 18, 13,
        ),
        (
            WORKLOADS["ring_doc"](10),
            "F[1,10] ap4 & F[1,20] ap7 & F[1,25] ap9", 30, 29,
        ),
    ],
    ids=["nested-ring4", "nested-plant4", "nested-ring6", "deep-rung"],
)
def test_progression_confirms_nested_pins(spec, text, high, pinned):
    """The horizons of the nested and deep cases that CI pins, over
    1..``high``; nested ring4 has no run of any horizon in 1..11."""
    _confirm(_system(spec), text, 1, high, pinned)


def test_synthesis_agrees_with_progression_beyond_enumeration():
    """Verdict and horizon equal the reference's on 100 requests too large
    to enumerate, and every returned run certifies.  Runs are not
    compared: the solver returns the least feasible point of its model,
    not the first run in ``outgoing`` order.  The layer walk gives every
    horizon's answer, past its repeat too, as the reference does."""
    found = 0
    for request in deep_requests(seed=15, trials=100):
        result = synthesize(request)
        horizon, _ = progression_synthesize(request)
        assert result.horizon == horizon
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


NESTED_RING4 = "F[1,8] (ap3 & F[1,4] ap1) & G[0,30] !ap4"


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
