import hashlib
import json
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ticksynth.tdes import (
    PROSPECTIVE,
    REMOTE,
    TICK,
    EventTiming,
    Fragment,
    FragmentError,
    InvalidSystemError,
    StateCapError,
    SystemFormatError,
    TimedDes,
    TimedState,
    UntimedDes,
    build_tdes,
    fixture_path,
    fragment_errors,
    fragment_from_json,
    fragment_to_json,
    initial_state,
    load_fragment,
    load_system,
    replay_events,
    step,
    system_from_json,
    tdes_to_dot,
    untimed_to_dot,
)

from helpers import abstract_fragment, perfbench_workloads, random_system
from tdes_oracle import reference_reachable_graph


def tiny_system(**overrides):
    base = dict(
        states={"A", "B"},
        events={"go"},
        transitions={("A", "go"): "B"},
        initial="A",
        atoms={"x"},
        labeling={"A": {"x"}},
        timing={"go": EventTiming(REMOTE, 1)},
    )
    base.update(overrides)
    return UntimedDes(**base)


# --- validation ---------------------------------------------------------------

def invalid_system_problems(**overrides) -> list[str]:
    """The problems ``UntimedDes`` lists for ``tiny_system(**overrides)``."""
    with pytest.raises(InvalidSystemError) as err:
        tiny_system(**overrides)
    message = str(err.value)
    assert message.startswith("invalid system: ")
    return message.removeprefix("invalid system: ").split("; ")


def test_ring_system_validates_clean(ring_doc):
    system = system_from_json(ring_doc)
    assert system.initial == "p1" and len(system.states) == 12


def test_validate_flags_undeclared_transition_target():
    messages = invalid_system_problems(transitions={("A", "go"): "C"})
    assert len(messages) == 1
    assert "target" in messages[0] and "'C'" in messages[0]


def test_validate_flags_inverted_prospective_bounds():
    errors = invalid_system_problems(timing={"go": EventTiming(PROSPECTIVE, 3, 2)})
    assert len(errors) == 1
    assert "lower bound 3" in errors[0]


def test_unused_event_is_accepted():
    system = tiny_system(
        events={"go", "idle"},
        timing={"go": EventTiming(REMOTE, 1), "idle": EventTiming(REMOTE, 0)},
    )
    assert system.event_order() == ("go", "idle")
    assert build_tdes(system).n > 0


def test_validate_rejects_reserved_tick_name():
    messages = invalid_system_problems(
        events={"go", TICK},
        timing={"go": EventTiming(REMOTE, 1), TICK: EventTiming(REMOTE, 0)},
    )
    assert any("reserved" in m for m in messages)


@pytest.mark.parametrize(
    "overrides, named",
    [
        pytest.param({"initial": "Z"}, "initial state 'Z'", id="initial-state"),
        pytest.param(
            {"transitions": {("Z", "go"): "B"}}, "('Z', 'go'): source",
            id="transition-source",
        ),
        pytest.param(
            {"transitions": {("A", "stop"): "B"}}, "('A', 'stop'): event",
            id="transition-event",
        ),
        pytest.param(
            {"labeling": {"Z": {"x"}}}, "undeclared state 'Z'", id="label-state"
        ),
        pytest.param(
            {"labeling": {"A": {"y"}}}, "label 'y' on state 'A'", id="label-atom"
        ),
        pytest.param({"timing": {}}, "event 'go' has no timing", id="untimed-event"),
        pytest.param(
            {"timing": {"go": EventTiming(REMOTE, 1), "stop": EventTiming(REMOTE, 0)}},
            "undeclared event 'stop'",
            id="timing-event",
        ),
        pytest.param(
            {"timing": {"go": EventTiming(REMOTE, -1)}},
            "event 'go' has a negative lower bound",
            id="negative-lower",
        ),
    ],
)
def test_construction_rejects_each_invariant(overrides, named):
    messages = invalid_system_problems(**overrides)
    assert len(messages) == 1
    assert named in messages[0]


def test_construction_lists_every_problem():
    messages = invalid_system_problems(
        initial="Z", timing={"go": EventTiming(REMOTE, -1)}
    )
    assert len(messages) == 2


def test_construction_rejects_timing_that_is_not_event_timing():
    # a tuple has no bounds to check, so it is one problem and no crash
    with pytest.raises(InvalidSystemError) as err:
        UntimedDes({"a"}, {"go"}, {("a", "go"): "a"}, "a", set(), {}, {"go": (1, 2)})
    assert str(err.value) == (
        "invalid system: timing of event 'go' is (1, 2), not an EventTiming"
    )


def test_event_timing_constructor_shape_checks():
    with pytest.raises(ValueError):
        EventTiming("sometimes", 1, 2)
    with pytest.raises(ValueError):
        EventTiming(PROSPECTIVE, 1)
    with pytest.raises(ValueError):
        EventTiming(REMOTE, 1, 5)
    with pytest.raises(ValueError):
        EventTiming(PROSPECTIVE, 0, "3")
    with pytest.raises(ValueError):
        EventTiming(PROSPECTIVE, True, 3)
    with pytest.raises(ValueError):
        EventTiming(REMOTE, 1.5)


# --- initial state ------------------------------------------------------------

def test_ring_initial_timers(ring):
    start = initial_state(ring)
    assert start.activity == "p1"
    timers = start.timer_map()
    assert timers == {
        "move12": 0, "move14": 0, "move21": 0, "move23": 0,
        "move32": 0, "move34": 0, "move41": 0, "move43": 0,
        "reach12": 2, "reach14": 1, "reach21": 3, "reach23": 2,
        "reach32": 3, "reach34": 2, "reach41": 2, "reach43": 1,
    }


def test_initial_timers_zero_upper_prospective():
    system = tiny_system(timing={"go": EventTiming(PROSPECTIVE, 0, 0)})
    assert initial_state(system).timer_map() == {"go": 0}


def test_initial_timer_single_remote():
    system = tiny_system(timing={"go": EventTiming(REMOTE, 5)})
    assert initial_state(system).timer_map()["go"] == 5


# --- enabling: an event is enabled exactly where step defines a successor ------

def test_tick_enabled_at_ring_initial(ring):
    assert step(ring, initial_state(ring), TICK) is not None


def test_remote_event_needs_zero_timer(ring):
    start = initial_state(ring)
    # not defined at p1 at all
    assert step(ring, start, "reach14") is None
    moved = step(ring, start, "move14")
    assert moved.timer_map()["reach14"] == 1
    assert step(ring, moved, "reach14") is None
    after_tick = step(ring, moved, TICK)
    assert after_tick.timer_map()["reach14"] == 0
    assert step(ring, after_tick, "reach14") is not None


def test_tick_blocked_by_expired_prospective_event():
    system = tiny_system(timing={"go": EventTiming(PROSPECTIVE, 0, 0)})
    start = initial_state(system)
    assert step(system, start, TICK) is None
    assert step(system, start, "go") is not None


def test_prospective_window_respects_minimum_delay():
    system = tiny_system(timing={"go": EventTiming(PROSPECTIVE, 1, 3)})
    start = initial_state(system)  # timer 3, window is 0..2
    assert step(system, start, "go") is None
    after = step(system, start, TICK)
    assert after.timer_map()["go"] == 2
    assert step(system, after, "go") is not None


def test_enabled_rejects_unknown_event(ring):
    # an undeclared event is not enabled; a replay names it and its step
    assert step(ring, initial_state(ring), "teleport") is None
    with pytest.raises(FragmentError, match=(
        "event 'teleport' at step 1 is not declared"
    )):
        replay_events(ring, ["teleport"])


# --- stepping -----------------------------------------------------------------

def test_move_keeps_pending_remote_timer(ring):
    start = initial_state(ring)
    moved = step(ring, start, "move14")
    assert moved.activity == "p14"
    # reach14 is defined at the target, so its timer is carried over
    assert moved.timer_map()["reach14"] == 1
    # reach12 is undefined at the target and resets to its default
    assert moved.timer_map()["reach12"] == 2


def test_tick_saturates_remote_timer_at_zero():
    system = tiny_system(timing={"go": EventTiming(REMOTE, 1)})
    start = initial_state(system)
    once = step(system, start, TICK)
    assert once.timer_map()["go"] == 0
    twice = step(system, once, TICK)
    assert twice.timer_map()["go"] == 0


def test_tick_resets_undefined_event_to_default():
    system = UntimedDes(
        states={"A", "B"},
        events={"go", "other"},
        transitions={("A", "go"): "B", ("B", "other"): "A"},
        initial="A",
        atoms=set(),
        labeling={},
        timing={
            "go": EventTiming(REMOTE, 0),
            "other": EventTiming(PROSPECTIVE, 1, 2),
        },
    )
    start = initial_state(system)  # other undefined at A, timer 2
    assert step(system, start, TICK).timer_map()["other"] == 2


def test_step_rejects_disabled_event(ring):
    assert step(ring, initial_state(ring), "reach14") is None


# --- reachable construction ----------------------------------------------------

def _as_reference_state(state):
    """A timed state in the reference's form."""
    return state.activity, frozenset(state.timers)


def _as_reference(graph):
    """A built graph as the reference's (states, edges) sets."""
    states = [_as_reference_state(s) for s in graph.states]
    edges = {
        (states[i], ev, states[j])
        for i, pairs in enumerate(graph.outgoing) for ev, j in pairs
    }
    return set(states), edges


def _document(system: UntimedDes) -> dict:
    """The JSON document form of ``system``."""
    events = []
    for name, tim in sorted(system.timing.items()):
        entry = {"name": name, "kind": tim.kind, "lower": tim.lower}
        if tim.upper is not None:
            entry["upper"] = tim.upper
        events.append(entry)
    return {
        "states": sorted(system.states),
        "events": events,
        "transitions": [
            {"from": src, "event": ev, "to": dst}
            for (src, ev), dst in sorted(system.transitions.items())
        ],
        "initial": system.initial,
        "atoms": sorted(system.atoms),
        "labels": {s: sorted(aps) for s, aps in sorted(system.labeling.items())},
    }


def test_ring_reachable_graph_matches_reference(ring, ring_tdes, ring_doc):
    ref_states, ref_edges = reference_reachable_graph(ring_doc)
    assert ring_tdes.n == len(ref_states) == 28
    assert sum(map(len, ring_tdes.outgoing)) == len(ref_edges) == 44
    assert _as_reference(ring_tdes) == (ref_states, ref_edges)


def _matches_reference(graph) -> bool:
    """The built graph has the reference's states and edges, numbered in
    breadth-first discovery order with each state's edges in event order,
    and ``outgoing`` lists exactly those edges."""
    doc = _document(graph.untimed)
    ref_states, ref_edges = reference_reachable_graph(doc)
    if _as_reference(graph) != (ref_states, ref_edges):
        return False
    leaving = {}
    for src, ev, dst in ref_edges:
        leaving.setdefault(src, []).append((ev, dst))
    order = [_as_reference_state(graph.states[0])]
    index = {order[0]: 0}
    outgoing = []
    for state in order:  # grows while it is walked: a breadth-first search
        pairs = sorted(leaving.get(state, []), key=lambda pair: pair[0])
        for _, dst in pairs:
            if dst not in index:
                index[dst] = len(order)
                order.append(dst)
        outgoing.append(tuple((ev, index[dst]) for ev, dst in pairs))
    return (
        [_as_reference_state(s) for s in graph.states] == order
        and graph.outgoing == outgoing
    )


def test_random_reachable_graphs_match_reference():
    # ring4's events are all remote; random systems mix in prospective
    # ones, so tick blocking and the prospective window are cross-checked
    rng = random.Random(1994)
    blocked_ticks = prospective_edges = 0
    for trial in range(120):
        system = random_system(rng)
        graph = build_tdes(system, state_cap=5000)
        assert _matches_reference(graph), trial
        blocked_ticks += sum(
            TICK not in dict(pairs) for pairs in graph.outgoing
        )
        prospective_edges += sum(
            ev != TICK and system.timing[ev].kind == PROSPECTIVE
            for pairs in graph.outgoing for ev, _ in pairs
        )
    assert blocked_ticks >= 100 and prospective_edges >= 100
    # with few transitions, many activities define no event: their states
    # only tick, and exploring one tries tick alone.  Events e1 and e3 are
    # renamed z1 and z3, so tick sorts between the events.
    rng = random.Random(2718)
    tick_only = 0
    for trial in range(120):
        text = json.dumps(_document(random_system(rng, density=0.2)))
        for odd in ("1", "3"):
            text = text.replace(f'"e{odd}"', f'"z{odd}"')
        system = system_from_json(json.loads(text))
        graph = build_tdes(system, state_cap=5000)
        assert _matches_reference(graph), f"sparse {trial}"
        busy = {src for src, _ in system.transitions}
        tick_only += sum(s.activity not in busy for s in graph.states)
    assert tick_only >= 80


def test_no_timed_state_is_a_dead_end(ring_tdes):
    # tick is blocked only by a defined prospective event whose timer is
    # at zero, and that event is then enabled, so every explored state
    # has an edge out: the encoding's flow row of a state left by no edge
    # never fires.  Random systems, dense and sparse, and the benchmark's
    # ring10 and plant4, each built whole.
    graphs = [ring_tdes]
    for seed, density in ((1994, 0.55), (2718, 0.2), (3, 0.55)):
        rng = random.Random(seed)
        graphs += [
            build_tdes(random_system(rng, density=density), state_cap=5000)
            for _ in range(120)
        ]
    workloads = perfbench_workloads()
    for doc in (workloads["ring_doc"](10), workloads["plant_doc"](4)):
        graphs.append(build_tdes(system_from_json(doc)))
    blocked = 0
    for trial, graph in enumerate(graphs):
        assert len(graph.outgoing) == graph.n, trial
        assert all(graph.outgoing), trial
        blocked += sum(TICK not in dict(pairs) for pairs in graph.outgoing)
    assert blocked >= 1000
    # states, transitions and tick transitions, as `ticksynth build` counts
    edges = [[ev for pairs in g.outgoing for ev, _ in pairs] for g in graphs[-2:]]
    assert [(len(e), e.count(TICK)) for e in edges] == [(107, 67), (3798, 600)]
    assert [graph.n for graph in graphs[-2:]] == [67, 1260]


def bfs_depths(graph):
    """Each state's distance from the initial state in the full graph."""
    depth = [0] + [None] * (graph.n - 1)
    for i in range(graph.n):
        for _, j in graph.outgoing[i]:
            if depth[j] is None:
                depth[j] = depth[i] + 1
    return depth


def test_explored_prefix_matches_full_graph():
    # the first 120 systems of test_random_reachable_graphs_match_reference
    rng = random.Random(1994)
    for trial in range(120):
        system = random_system(rng)
        full = build_tdes(system, state_cap=5000)
        depth = bfs_depths(full)
        last = {d: i for i, d in enumerate(depth)}  # depths ascend
        for d in range(min(4, max(depth)) + 1):
            graph = TimedDes(system)
            graph.explore(last[d])
            n = graph.n
            # expanding depths 0..d discovers exactly depths 0..d+1
            assert n == last.get(d + 1, last[d]) + 1, trial
            assert graph.states == full.states[:n]
            assert all(graph.index[s] == i for i, s in enumerate(graph.states))
            assert graph.outgoing == full.outgoing[:last[d] + 1]


def test_build_numbering_is_deterministic(ring):
    first = build_tdes(ring)
    second = build_tdes(ring)
    assert first.states == second.states
    assert first.outgoing == second.outgoing


def test_outgoing_lists_each_state_edges_by_event(ring, ring_tdes):
    outgoing = ring_tdes.outgoing
    assert len(outgoing) == ring_tdes.n
    assert sum(map(len, outgoing)) == 44
    states = ring_tdes.states
    for i, pairs in enumerate(outgoing):
        assert list(pairs) == sorted(pairs)
        assert all(step(ring, states[i], ev) == states[j] for ev, j in pairs)
    assert outgoing[0] == (("move12", 1), ("move14", 2), (TICK, 0))


def test_single_state_system_gets_tick_self_loop():
    system = UntimedDes(
        states={"only"},
        events=set(),
        transitions={},
        initial="only",
        atoms=set(),
        labeling={},
        timing={},
    )
    graph = build_tdes(system)
    assert graph.n == 1
    assert graph.outgoing == [((TICK, 0),)]


def test_state_cap_aborts_construction(ring):
    with pytest.raises(StateCapError):
        build_tdes(ring, state_cap=5)
    # the initial state alone needs a cap of 1
    with pytest.raises(ValueError, match="state cap must be at least 1, got 0"):
        TimedDes(ring, 0)
    with pytest.raises(ValueError, match="state cap must be an integer, got 2.5"):
        TimedDes(ring, 2.5)
    assert TimedDes(ring, 1).n == 1


def test_build_refuses_invalid_system():
    # An invalid system cannot be constructed, so it never reaches build.
    with pytest.raises(InvalidSystemError):
        build_tdes(tiny_system(transitions={("A", "go"): "C"}))


def test_random_walks_respect_timer_intervals():
    rng = random.Random(7)
    for _ in range(30):
        system = random_system(rng)
        graph = build_tdes(system, state_cap=5000)
        for state in graph.states:
            for name, value in state.timers:
                assert 0 <= value <= system.timing[name].timer_limit


def test_tick_disabled_whenever_prospective_expired():
    rng = random.Random(11)
    for _ in range(30):
        system = random_system(rng)
        graph = build_tdes(system, state_cap=5000)
        for state in graph.states:
            pending = any(
                value == 0
                and system.timing[name].kind == PROSPECTIVE
                and (state.activity, name) in system.transitions
                for name, value in state.timers
            )
            assert (step(system, state, TICK) is None) == pending


# --- fragments ------------------------------------------------------------------

def test_count_over_mixed_event_sequence():
    frag = abstract_fragment(["a", "a", "b", "a"], ["tick", "sigma", "tick"])
    assert frag.count(0, 3) == 2
    assert frag.count(1, 3) == 1
    for k in range(4):
        assert frag.count(k, k) == 0
    with pytest.raises(IndexError):
        frag.count(2, 1)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["tick", "go", "stop"]), max_size=8))
def test_count_monotone_in_window_end(events):
    frag = abstract_fragment(["s"] * (len(events) + 1), events)
    horizon = frag.horizon
    for k in range(horizon + 1):
        for j in range(k, horizon):
            here = frag.count(k, j)
            there = frag.count(k, j + 1)
            assert here <= there <= here + 1


def test_route_fragments_replay_on_ring(ring, route_a, route_b):
    assert fragment_errors(ring, route_a) == []
    assert fragment_errors(ring, route_b) == []
    assert route_a.horizon == 11
    assert route_b.horizon == 9
    assert route_a.count(0, 11) == 5
    assert route_b.count(0, 7) == 3


def test_fragment_replay_detects_bad_state(ring, route_a):
    broken = Fragment(
        route_a.states[:-1] + (TimedState("p3", route_a.states[-1].timers),),
        route_a.events,
    )
    problems = fragment_errors(ring, broken)
    assert problems and "replay yields" in problems[0]


def test_fragment_replay_detects_wrong_initial_state(ring, route_a):
    start = TimedState("p3", route_a.states[0].timers)
    broken = Fragment((start,) + route_a.states[1:], route_a.events)
    assert fragment_errors(ring, broken) == [
        f"state 0 is {start}, replay yields {route_a.states[0]}"
    ]


def test_fragment_replay_detects_disabled_event(ring, route_a):
    broken = Fragment(route_a.states[:2], ("reach14",))
    assert fragment_errors(ring, broken) == [
        "event 'reach14' at step 1 is not enabled"
    ]


def test_fragment_replay_detects_unknown_event(ring, route_a):
    broken = Fragment(route_a.states[:3], (route_a.events[0], "teleport"))
    assert fragment_errors(ring, broken) == [
        "event 'teleport' at step 2 is not declared"
    ]


def test_fragment_alternation_checked():
    with pytest.raises(FragmentError):
        Fragment((TimedState("a", ()),), ("tick",))


# --- JSON and DOT ---------------------------------------------------------------

def test_system_json_rejects_duplicate_transition(ring_doc):
    doc = json.loads(json.dumps(ring_doc))
    doc["transitions"].append({"from": "p1", "event": "move12", "to": "p2"})
    with pytest.raises(SystemFormatError):
        system_from_json(doc)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["states"].append("p1"),
     "'states'[12]: duplicate name 'p1'"),
    (lambda doc: doc["atoms"].insert(2, "ap1"),
     "'atoms'[2]: duplicate name 'ap1'"),
    (lambda doc: doc["labels"]["p2"].append("ap2"),
     "labels['p2'][1]: duplicate name 'ap2'"),
    # 30,000 new names, then three repeats: a scan of every prefix for
    # each name would take seconds
    (lambda doc: doc["states"].extend(
        [f"s{i}" for i in range(30_000)] + ["s29999", "p1", "s7"]),
     "'states'[30012]: duplicate name 's29999'"),
], ids=["states", "atoms", "labels", "long-states"])
def test_system_json_rejects_duplicate_names(ring_doc, edit, message):
    doc = json.loads(json.dumps(ring_doc))
    edit(doc)
    start = time.perf_counter()
    with pytest.raises(SystemFormatError) as err:
        system_from_json(doc)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == message


def test_system_json_requires_keys():
    with pytest.raises(SystemFormatError):
        system_from_json({"states": []})


# an ignored misspelling would change the answer: a typo in "labels"
# leaves every atom false, one in "lower" leaves the bound at 0, and one
# in "timers" skips the timer check
@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(lables=doc.pop("labels")),
     "system document: unknown key 'lables'"),
    (lambda doc: doc["events"][0].update(lowr=3),
     "events[0]: unknown key 'lowr'"),
    (lambda doc: doc["transitions"][1].update(guard="ap1"),
     "transitions[1]: unknown key 'guard'"),
], ids=["top", "event", "transition"])
def test_system_json_rejects_unknown_keys(ring_doc, edit, message):
    doc = json.loads(json.dumps(ring_doc))
    edit(doc)
    with pytest.raises(SystemFormatError) as err:
        system_from_json(doc)
    assert str(err.value) == message


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(horizon=1), "fragment document: unknown key 'horizon'"),
    (lambda doc: doc["states"][1].update(timer={}),
     "states[1]: unknown key 'timer'"),
], ids=["top", "state"])
def test_fragment_json_rejects_unknown_keys(ring, route_a, edit, message):
    doc = fragment_to_json(route_a)
    edit(doc)
    with pytest.raises(FragmentError) as err:
        fragment_from_json(doc, ring)
    assert str(err.value) == message


def test_load_system_reports_path_on_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(SystemFormatError) as err:
        load_system(path)
    assert "broken.json" in str(err.value)


def test_load_names_the_file_whose_text_does_not_decode(ring, tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff{}")
    with pytest.raises(SystemFormatError) as err:
        load_system(path)
    assert str(err.value).startswith(f"{path}: 'utf-8' codec can't decode")
    with pytest.raises(FragmentError) as err:
        load_fragment(path, ring)
    assert str(err.value).startswith(f"{path}: 'utf-8' codec can't decode")


REPEATED_KEYS = [  # each repeat is loaded silently by a last-wins decoder
    ("ring4.json", '"p2": ["ap2"]', '"p2": ["ap1"], "p2": ["ap2"]', "p2"),
    ("ring4.json", '"name": "reach12", "kind": "remote", "lower": 2',
     '"name": "reach12", "kind": "remote", "lower": 9, "lower": 2', "lower"),
    ("ring4.json", '"event": "move12", "to": "p12"',
     '"event": "move12", "to": "p14", "to": "p12"', "to"),
    ("ring4_route_a.json", '{"activity": "p14"}',
     '{"activity": "p2", "activity": "p14"}', "activity"),
]


@pytest.mark.parametrize(
    "fixture, text, repeated, key", REPEATED_KEYS,
    ids=["labels", "event", "transition", "fragment"],
)
def test_load_refuses_a_repeated_object_key(
    ring, tmp_path, fixture, text, repeated, key
):
    source = fixture_path(fixture).read_text(encoding="utf-8")
    assert text in source
    path = tmp_path / fixture
    path.write_text(source.replace(text, repeated, 1), encoding="utf-8")
    if fixture == "ring4.json":
        with pytest.raises(SystemFormatError) as err:
            load_system(path)
    else:
        with pytest.raises(FragmentError) as err:
            load_fragment(path, ring)
    assert str(err.value) == f"{path}: JSON object repeats key {key!r}"


def test_fragment_json_roundtrip_with_timers(ring, route_a):
    doc = fragment_to_json(route_a)
    again = fragment_from_json(doc, ring)
    assert again == route_a


def test_fragment_json_reconstructs_missing_timers(ring):
    doc = {
        "states": [{"activity": "p1"}, {"activity": "p14"}],
        "events": ["move14"],
    }
    frag = fragment_from_json(doc, ring)
    assert frag.states[1].timer_map()["reach14"] == 1


# each stored state is compared with its replay as a whole
MISMATCH = r"states\[1\] does not match the replayed state"


def test_fragment_json_rejects_wrong_activity(ring):
    replayed = replay_events(ring, ["move14"]).states[1].timer_map()
    for second in (
        {"activity": "p2"},
        {"activity": "p2", "timers": replayed},
    ):
        doc = {"states": [{"activity": "p1"}, second], "events": ["move14"]}
        with pytest.raises(FragmentError, match=MISMATCH):
            fragment_from_json(doc, ring)


def test_fragment_json_rejects_wrong_timer(ring):
    replayed = replay_events(ring, ["move14"]).states[1].timer_map()
    missing = dict(replayed)
    del missing["reach14"]
    for timers in (
        {ev: 9 for ev in ring.event_order()},
        missing,
        {**replayed, "reach99": 0},
    ):
        doc = {
            "states": [{"activity": "p1"}, {"activity": "p14", "timers": timers}],
            "events": ["move14"],
        }
        with pytest.raises(FragmentError, match=MISMATCH):
            fragment_from_json(doc, ring)


def test_replay_events_rejects_disabled(ring):
    with pytest.raises(FragmentError):
        replay_events(ring, ["reach14"])


def test_dot_exports(ring, ring_tdes, route_a):
    untimed = untimed_to_dot(ring)
    assert '"p1" -> "p12" [label="move12"];' in untimed
    plain = tdes_to_dot(ring_tdes)
    assert "style=dashed" in plain
    assert plain.count("->") == 44
    overlay = tdes_to_dot(ring_tdes, highlight=route_a)
    assert "color=red" in overlay
    assert overlay != plain
    # edges by state index, then event: any change of order changes these
    for text, digest in (
        (plain, "4b03d7adda59a0592460e8a84bb1e4521de86bac5f0b72780be51a0202ab5504"),
        (overlay, "c12c872b1f91b58c88f25df1e0e017d13fb1f854f407def5055691c271bc5c31"),
    ):
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# A DOT quoted string: no bare quote, backslash or newline inside.
DOT_STRING = re.compile(r'"(?:[^"\\\n]|\\[^\n])*"')


def test_dot_exports_escape_quotes_backslashes_and_newlines():
    odd = 'a"b\\c\nd'
    system = UntimedDes(
        states={odd, "plain"},
        events={'go"x', "back\nstep"},
        transitions={(odd, 'go"x'): "plain", ("plain", "back\nstep"): odd},
        initial=odd,
        atoms={'p"q'},
        labeling={odd: {'p"q'}},
        timing={
            'go"x': EventTiming(REMOTE, 0),
            "back\nstep": EventTiming(REMOTE, 1),
        },
    )
    untimed = untimed_to_dot(system).splitlines()
    timed = tdes_to_dot(build_tdes(system)).splitlines()
    # 3 + 2 states + 2 transitions + 1, and 4 + 3 states + 5 edges + 1
    assert (len(untimed), len(timed)) == (8, 13)
    assert r'  "a\"b\\c\nd" -> "plain" [label="go\"x"];' in untimed
    assert r'  // timer order: back\nstep,go\"x' in timed
    for line in untimed + timed[2:]:
        # outside its quoted strings a line holds no quote or backslash
        assert not {'"', "\\"} & set(DOT_STRING.sub("", line)), line


# --- JSON fuzzing -------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
STATE_NAMES = st.sampled_from(["p1", "p2", "p3"])
EVENT_NAMES = st.sampled_from(["go", "stop", TICK])
EVENT_DOCS = st.one_of(
    st.fixed_dictionaries(
        {"name": EVENT_NAMES, "kind": st.just(REMOTE)},
        optional={"lower": st.integers(0, 2)},
    ),
    st.fixed_dictionaries({
        "name": EVENT_NAMES,
        "kind": st.just(PROSPECTIVE),
        "lower": st.integers(0, 2),
        "upper": st.integers(0, 3),
    }),
)
SYSTEM_DOCS = st.fixed_dictionaries(
    {
        "states": st.lists(STATE_NAMES, min_size=1, unique=True),
        "events": st.lists(EVENT_DOCS, max_size=3, unique_by=lambda e: e["name"]),
        "transitions": st.lists(
            st.fixed_dictionaries(
                {"from": STATE_NAMES, "event": EVENT_NAMES, "to": STATE_NAMES}
            ),
            max_size=4,
        ),
        "initial": STATE_NAMES,
    },
    optional={
        "atoms": st.lists(st.sampled_from(["a", "b"]), unique=True),
        "labels": st.dictionaries(STATE_NAMES, st.lists(st.sampled_from(["a", "b"]))),
    },
)


@st.composite
def _route_prefixes(draw):
    """A prefix of the ring's route A, some states without their timers."""
    ring = load_system(fixture_path("ring4.json"))
    events = json.loads(fixture_path("ring4_route_a.json").read_text())["events"]
    steps = draw(st.integers(0, len(events)))
    route = fragment_to_json(replay_events(ring, events[:steps]))
    states = route["states"]
    for state in states:
        if "timers" in state and draw(st.booleans()):
            del state["timers"]
    return route


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, inner in value.items():
            yield from _paths(inner, path + (key,))
    elif isinstance(value, list):
        for pos, inner in enumerate(value):
            yield from _paths(inner, path + (pos,))


@st.composite
def _mutated(draw, plausible):
    """A plausible document with up to two of its values replaced by any
    JSON value, or their keys deleted."""
    doc = draw(plausible)
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JSON_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JSON_VALUES)
    return doc


@settings(max_examples=300, deadline=None)
@given(_mutated(SYSTEM_DOCS))
def test_any_json_loads_as_system_or_raises_documented_error(doc):
    try:
        system_from_json(doc)
    except (SystemFormatError, InvalidSystemError):
        pass


@settings(max_examples=300, deadline=None)
@given(_mutated(_route_prefixes()))
def test_any_json_loads_as_fragment_or_raises_documented_error(ring, doc):
    try:
        fragment_from_json(doc, ring)
    except FragmentError:
        pass
