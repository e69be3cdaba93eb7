"""The progression reference against enumeration, then against every pin."""

import pytest

from ticksynth.logic import evaluate, parse
from ticksynth.synth import SynthesisRequest, oracle_synthesize
from ticksynth.tdes import fixture_path, load_system, system_from_json

from helpers import oracle_requests, perfbench_workloads
from progression import obligation, progress, progression_synthesize

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
